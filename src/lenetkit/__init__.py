"""lenetkit: a self-contained LeNet training/inference engine.

A fixed sigmoid/average-pooling LeNet stack with analytically exact
backward passes, cross-entropy and focal losses, an SGD training loop with
deterministic seeding, confusion-matrix metrics, PGM dataset ingestion with
augmentation, and a CLI that ties it together.
"""

__version__ = "0.1.0"
