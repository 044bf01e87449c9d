from hoicomp.experiments import vcl_comparison, zero_shot_comparison

# the engine of perfbench's --fingerprint, on a few seconds' worth of data
SMALL = {"dataset_overrides": {"n_train": 600, "n_test": 300}, "train_overrides": {"iterations": 5}}


def test_vcl_comparison_reports_rare_and_nonrare():
    rows = vcl_comparison([0], **SMALL)
    assert [row["seed"] for row in rows] == [0]
    for run in ("baseline", "vcl"):
        assert set(rows[0][run].means) == {"full", "rare", "nonrare"}, run


def test_zero_shot_comparison_reports_unseen_and_seen():
    rows = zero_shot_comparison([0], **SMALL)
    assert [row["seed"] for row in rows] == [0]
    for run in ("baseline", "vcl"):
        assert set(rows[0][run].means) == {"full", "unseen", "seen"}, run
