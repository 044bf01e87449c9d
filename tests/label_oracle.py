"""Dense references for the code that reads packed labels.

Each function takes the (N, C) 0/1 label rows a test built, one byte per
class, and works on them the plain way labels were handled before they were
held as bits. Tests pack the same rows (``conftest.packed``) and require the
packed code to give these results.
"""

import numpy as np


def class_counts(label) -> np.ndarray:
    """Instances per class, each active class of a row counted once."""
    return label.sum(axis=0, dtype=np.int64)


def apply_split(label, unseen) -> np.ndarray:
    """A copy of the rows with the ``unseen`` classes cleared."""
    out = label.copy()
    out[:, sorted(unseen)] = 0
    return out


def group_by_image(image_id, label) -> list[list[int]]:
    """Row indices of the rows with an active class, one list per image in
    ascending image id, rows in their order."""
    groups: dict[int, list[int]] = {}
    for k in range(len(label)):
        if label[k].any():
            groups.setdefault(int(image_id[k]), []).append(k)
    return [groups[i] for i in sorted(groups)]


def ground_truth_rows(label) -> list[tuple[int, int]]:
    """(row, class) of every active class, row by row, classes ascending."""
    return [(k, int(c)) for k in range(len(label)) for c in np.flatnonzero(label[k])]
