"""saginsim: satellite-AAV edge computing and data collection simulator
with a diffusion-policy reinforcement learning trainer."""

from .environment import SaginEnv, state_dim
from .scenario import Scenario, load_scenario
from .trainer import Hyper, QagobTrainer, train

__version__ = "0.1.0"

__all__ = [
    "SaginEnv", "Scenario", "Hyper", "QagobTrainer",
    "load_scenario", "state_dim", "train", "__version__",
]
