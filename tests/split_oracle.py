"""Oracle for ``zeroshot.apply_split``: the row-dropping copy it replaced.

Every column is copied, and rows whose every class is unseen are dropped.
Training on this copy must equal training on ``apply_split``'s result bit
for bit, because ``trainer.group_by_image`` never draws a row with an empty
label and keeps the other rows in order.
"""

from dataclasses import replace

import numpy as np


def apply_split(train, split):
    """``train`` without its unseen label bits, minus the rows left with none."""
    label = train.label.copy()
    label[:, sorted(split.unseen)] = 0
    return replace(train, label=label)[label.any(axis=1)]


def kept_rows(train, split) -> np.ndarray:
    """Row indices of ``train`` that ``apply_split`` keeps, in order."""
    return np.flatnonzero(np.delete(train.label, sorted(split.unseen), axis=1).any(axis=1))
