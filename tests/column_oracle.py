"""Oracles for ``evaluator.evaluate``: the column-join matcher it replaced,
and the one-class AP that ``evaluator.average_precisions`` batches.

Every (pair, class) score of a class with ground truth is ranked by one
stable argsort per class column and joined to the ground truths of its class
and image; the greedy then runs over that whole ranking. Per-class AP must
equal the ground-truth-side matcher's bit for bit.
"""

import numpy as np

from hoicomp.evaluator import IOU_THRESHOLD, box_iou


def average_precision(hits: np.ndarray, npos: int) -> float:
    """All-points AP of one class from its TP flags in descending-score
    order, one 1-D pass per class.

    NaN when the class has no ground truth; 0 when it has ground truth but
    no detections.
    """
    if npos == 0:
        return float("nan")
    if hits.size == 0:
        return 0.0
    tp = np.cumsum(hits.astype(np.float64))
    fp = np.cumsum((~hits).astype(np.float64))
    recall = tp / npos
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * envelope))


def _greedy_hits(dets, gts, space, mode: str, threshold: float,
                 npos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TP flags of the pooled (pair, class) scores of classes with ground
    truth, in matching order (by class, then by descending score, equal
    scores in pair order), and the bounds of each class's run in that order:
    class c is ``[bounds[c], bounds[c + 1])``. ``npos`` counts ground truths
    per class."""
    images, gt_image = np.unique(gts.image_id, return_inverse=True)
    slot = np.searchsorted(images, dets.image_id)  # a pair's image among them,
    found = slot < len(images)                      # if it has a ground truth at all
    found[found] = images[slot[found]] == dets.image_id[found]

    classes = np.flatnonzero(npos)  # a class without ground truth has no AP to compute
    # each class's pairs by descending score; the stable sort keeps ties in pair order
    rows = np.argsort(-dets.score[:, classes].T, axis=1, kind="stable").ravel()
    hoi = np.repeat(classes, len(dets.image_id))
    if mode == "known_object":  # a ground truth is always in its own class's pool
        obj = space.objects_by_hoi()
        pool = np.unique(obj[gts.hoi_id] * len(images) + gt_image)  # (object, image) keys
        pooled = found[rows] & np.isin(obj[hoi] * len(images) + slot[rows], pool)
        rows, hoi = rows[pooled], hoi[pooled]
    bounds = np.searchsorted(hoi, np.arange(space.num_hois + 1))

    # join each detection to the ground truths of its class and image
    gt_key = gts.hoi_id * len(images) + gt_image
    gt_order = np.argsort(gt_key, kind="stable")  # input order within one key
    gt_key = gt_key[gt_order]
    ranks = np.flatnonzero(found[rows])
    key = hoi[ranks] * len(images) + slot[rows[ranks]]
    lo = np.searchsorted(gt_key, key, "left")
    n_cand = np.searchsorted(gt_key, key, "right") - lo
    rank = np.repeat(ranks, n_cand)
    within = np.arange(len(rank)) - np.repeat(np.cumsum(n_cand) - n_cand, n_cand)
    gt = gt_order[np.repeat(lo, n_cand) + within]
    det = rows[rank]
    piou = np.minimum(box_iou(dets.human_box[det], gts.human_box[gt]),
                      box_iou(dets.object_box[det], gts.object_box[gt]))
    ok = (piou >= threshold) & (piou > 0)  # a pair IoU of 0 never matches
    rank, gt, piou = rank[ok], gt[ok], piou[ok]

    # greedy in matching order, over the detections that have a candidate
    hits = np.zeros(len(rows), dtype=bool)
    matched = bytearray(len(gts))
    starts = np.flatnonzero(np.diff(rank, prepend=-1))
    stops = np.append(starts[1:], len(rank))
    gt, piou = gt.tolist(), piou.tolist()
    for r, start, stop in zip(rank[starts].tolist(), starts.tolist(), stops.tolist()):
        best_gt, best_iou = -1, 0.0
        for g, v in zip(gt[start:stop], piou[start:stop]):
            if not matched[g] and v > best_iou:
                best_gt, best_iou = g, v
        if best_gt >= 0:
            matched[best_gt] = 1
            hits[r] = True
    return hits, bounds


def column_evaluate(dets, gts, space, mode="default", iou_threshold=IOU_THRESHOLD) -> np.ndarray:
    """Per-class AP (NaN without ground truth) by the column-join matcher."""
    npos = np.bincount(gts.hoi_id, minlength=space.num_hois)
    hits, bounds = _greedy_hits(dets, gts, space, mode, iou_threshold, npos)
    ap = np.full(space.num_hois, np.nan)
    for c in np.flatnonzero(npos).tolist():
        ap[c] = average_precision(hits[bounds[c] : bounds[c + 1]], int(npos[c]))
    return ap
