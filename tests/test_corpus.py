"""The committed stdout corpus replays byte for byte (see corpus.py)."""

import corpus
from conftest import RELABELLED_B4


def test_every_request_prints_what_the_corpus_recorded():
    diffs = corpus.changed()
    for argv in diffs:
        print(argv)
    assert not diffs, f"{len(diffs)} requests differ; regenerate with corpus.py --write"


def test_the_corpus_relabelled_b4_is_the_fixture():
    assert corpus.CARTANS["RELABELLED_B4"] == RELABELLED_B4
