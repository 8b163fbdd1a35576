"""Numpy networks: reverse-mode autodiff, MLPs with npz checkpoints, Adam."""
