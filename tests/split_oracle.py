"""Oracle for ``zeroshot.apply_split``: the row-dropping copy it replaced.

Every column is copied, and rows whose every class is unseen are dropped.
Training on this copy must equal training on ``apply_split``'s result bit
for bit, because ``trainer.group_by_image`` never draws a row with an empty
label and keeps the other rows in order. Labels are stripped densely and
packed again.
"""

from dataclasses import replace

import numpy as np

from hoicomp.synthdata import unpack_labels

from conftest import packed


def _stripped(train, split) -> np.ndarray:
    """The dense labels of ``train`` without their unseen classes."""
    label = unpack_labels(train.label, len(split.seen | split.unseen))
    label[:, sorted(split.unseen)] = 0
    return label


def apply_split(train, split):
    """``train`` without its unseen label bits, minus the rows left with none."""
    label = _stripped(train, split)
    return replace(train, label=packed(label))[label.any(axis=1)]


def kept_rows(train, split) -> np.ndarray:
    """Row indices of ``train`` that ``apply_split`` keeps, in order."""
    return np.flatnonzero(_stripped(train, split).any(axis=1))
