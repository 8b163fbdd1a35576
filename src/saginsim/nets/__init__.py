"""Numpy networks: MLPs with explicit backprop and npz checkpoints, Adam."""
