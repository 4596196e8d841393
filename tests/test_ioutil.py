"""Tests for the crash-safe write helpers."""

import json
import os

import pytest

from repro.ioutil import atomic_write_json, atomic_write_text


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_tmp_droppings_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]

    def test_failed_write_preserves_original(self, tmp_path):
        # The destination keeps its old bytes if serialization blows up
        # mid-write — the whole point of write-to-tmp-then-replace.
        path = tmp_path / "out.json"
        atomic_write_json(path, {"good": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"good": 1}
        assert sorted(os.listdir(tmp_path)) == ["out.json"]


class TestAtomicWriteJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.json"
        atomic_write_json(path, {"b": 2, "a": [1, 2]})
        assert json.loads(path.read_text()) == {"a": [1, 2], "b": 2}

    def test_bytes_stable_under_key_order(self, tmp_path):
        # sort_keys: identical payloads give identical bytes.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        atomic_write_json(a, {"x": 1, "y": 2})
        atomic_write_json(b, {"y": 2, "x": 1})
        assert a.read_bytes() == b.read_bytes()

