"""Atomic JSON rewrites: readers never see a torn document."""

import json
import threading

import pytest

from repro.common.atomic import atomic_write_json


def _expected(doc, **kwargs):
    return json.dumps(doc, indent=2, **kwargs) + "\n"


class TestBytes:
    def test_same_bytes_as_indented_dump_plus_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = {"b": [1, 2], "a": {"z": None, "y": 1.5}}
        atomic_write_json(str(path), doc)
        assert path.read_text() == _expected(doc, sort_keys=True)
        atomic_write_json(str(path), doc, sort_keys=False)
        assert path.read_text() == _expected(doc)

    def test_default_serializes_unknown_objects(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(str(path), {"when": object}, default=str)
        assert json.loads(path.read_text()) == {"when": str(object)}

    def test_failed_write_keeps_old_document_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(str(path), {"version": 1})
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"version": object()})
        assert json.loads(path.read_text()) == {"version": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_polling_reader_never_decodes_a_torn_document(tmp_path):
    """A reader polling the file while a writer rewrites it in a loop
    sees one whole document or the other, never an empty or partial
    one (the torn read a truncate-then-write rewrite allows)."""
    path = tmp_path / "cluster.json"
    small = {"generation": "small", "agents": [{"pid": 1}]}
    large = {"generation": "large", "agents": [{"pid": i} for i in range(2000)]}
    atomic_write_json(str(path), small)
    stop = threading.Event()

    def writer():
        try:
            for i in range(100):
                atomic_write_json(str(path), large if i % 2 else small)
        finally:
            stop.set()

    thread = threading.Thread(target=writer)
    thread.start()
    reads = 0
    try:
        while not stop.is_set() or reads == 0:
            doc = json.loads(path.read_text())
            assert doc in (small, large)
            reads += 1
    finally:
        thread.join()
    assert reads > 0
    assert [p.name for p in tmp_path.iterdir()] == ["cluster.json"]
