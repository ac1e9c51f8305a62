import kfmetric


def test_every_export_resolves():
    missing = [name for name in kfmetric.__all__ if not hasattr(kfmetric, name)]
    assert missing == []
    assert len(set(kfmetric.__all__)) == len(kfmetric.__all__)
