"""Tests for the table rendering utilities."""

import os

import pytest

from repro.errors import ReproError
from repro.eval.report import Table, format_cell


class TestFormatCell:
    def test_none(self):
        assert format_cell(None) == "-"

    def test_string_passthrough(self):
        assert format_cell("1.5x") == "1.5x"

    def test_int(self):
        assert format_cell(42) == "42"

    def test_float_scaling(self):
        assert format_cell(0.1234) == "0.12"
        assert format_cell(12.34) == "12.3"
        assert format_cell(12345.6) == "12,346"

    def test_zero(self):
        assert format_cell(0.0) == "0"


class TestTable:
    def make(self):
        t = Table("Demo", ["name", "speed"])
        t.add_row("a", 1.5)
        t.add_row("b", 2.5)
        return t

    def test_add_row_validates_width(self):
        t = self.make()
        with pytest.raises(ReproError):
            t.add_row("only-one")

    def test_column_access(self):
        t = self.make()
        assert t.column("speed") == [1.5, 2.5]
        with pytest.raises(ReproError):
            t.column("missing")

    def test_row_by_key(self):
        t = self.make()
        assert t.row_by_key("b") == ["b", 2.5]
        with pytest.raises(ReproError):
            t.row_by_key("z")

    def test_value(self):
        t = self.make()
        assert t.value("a", "speed") == 1.5
        with pytest.raises(ReproError):
            t.value("a", "missing")

    def test_render_contains_everything(self):
        t = self.make()
        t.add_note("hello")
        text = t.render()
        assert "Demo" in text
        assert "speed" in text
        assert "note: hello" in text

    def test_markdown(self):
        md = self.make().to_markdown()
        assert md.startswith("### Demo")
        assert "| name | speed |" in md

    def test_save(self, tmp_path):
        from repro.obs import write_text
        path = os.path.join(tmp_path, "sub", "t.txt")
        write_text(path, self.make().render())
        with open(path) as f:
            assert "Demo" in f.read()
