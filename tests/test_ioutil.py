"""Atomic file writes: readers never observe a half-written artifact."""

import os

import pytest

from repro.ioutil import atomic_write_text


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text(encoding="utf-8") == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old", encoding="utf-8")
        atomic_write_text(path, "new")
        assert path.read_text(encoding="utf-8") == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("precious", encoding="utf-8")

        class Boom:
            def __str__(self):
                raise RuntimeError("mid-serialisation failure")

        with pytest.raises(TypeError):
            atomic_write_text(path, Boom())  # not a str: write() rejects it
        assert path.read_text(encoding="utf-8") == "precious"
        assert os.listdir(tmp_path) == ["out.txt"]
