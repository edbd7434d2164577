import pytest

from fraudsig.config import committing


def test_nested_commits_of_one_path_keep_the_last(tmp_path):
    """Two writers of one artifact, one inside the other's commit, each
    write their own temporary file: the one that commits last wins, and no
    temporary file is left."""
    path = tmp_path / "artifact.json"
    with committing(path) as outer:
        outer.write_text("outer")
        with committing(path) as inner:
            inner.write_text("inner")
        assert path.read_text() == "inner"
    assert path.read_text() == "outer"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_raising_body_keeps_the_old_file(tmp_path):
    """A write that raises leaves the committed file as it was, and removes
    its temporary file."""
    path = tmp_path / "artifact.json"
    path.write_text("old")
    with pytest.raises(RuntimeError), committing(path) as tmp:
        tmp.write_text("half")
        raise RuntimeError
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
