import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "saginsim"

# runio.write_events_jsonl is traced by perfbench/layers.json; it goes when
# the benchmark stops tracing it (ROADMAP item 1)
UNCALLED_BY_DESIGN = {"write_events_jsonl"}


def uncalled_definitions():
    """Names of the functions and classes of src/saginsim that no code of
    the package refers to outside their own definition.  A reference is a
    name, an attribute, an import or a string of __all__; dunder methods,
    which the language calls, are left out."""
    defs, refs = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((node.name, path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((node.name.split(".")[-1], path, node.lineno))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                refs.extend((elt.value, path, node.lineno)
                            for elt in node.value.elts)
    return sorted({name for name, path, first, last in defs
                   if not (name.startswith("__") and name.endswith("__"))
                   and not any(ref == name and (where != path
                                                or not first <= line <= last)
                               for ref, where, line in refs)})


def test_every_definition_has_a_caller_in_the_package():
    uncalled = uncalled_definitions()
    assert uncalled == sorted(UNCALLED_BY_DESIGN), \
        "no caller in src/saginsim: %s" % ", ".join(uncalled)
