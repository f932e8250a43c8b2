"""The docs link checker (tools/check_docs_links.py) stays green.

CI runs the script directly; this test keeps it honest for local
``pytest`` runs and pins the checker's own behavior on a known-dead
link and a known-missing code symbol.
"""
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_docs_links", REPO / "tools" / "check_docs_links.py"
)
check_docs_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs_links)


class TestDocsLinks:
    def test_no_dead_links(self):
        assert check_docs_links.check() == []

    def test_checker_catches_dead_link(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[ok](docs/REAL.md) [bad](docs/GONE.md) "
            "[skip](https://example.com) ![img](missing.png)\n"
            "[anchor](docs/REAL.md#real-heading) "
            "[bad-anchor](docs/REAL.md#nope)\n"
        )
        (tmp_path / "docs" / "REAL.md").write_text("# Real heading\n")
        monkeypatch.setattr(check_docs_links, "REPO", tmp_path)
        errors = check_docs_links.check()
        assert any("GONE.md" in e for e in errors)
        assert any("nope" in e for e in errors)
        assert len(errors) == 2  # https skipped, image skipped, anchor ok

    def test_checker_resolves_code_symbols(self, tmp_path, monkeypatch):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "mod.py").write_text(
            "LIMIT = 3\n\n\ndef helper():\n    pass\n\n\n"
            "class Pool:\n    size: int = 0\n\n    def read(self):\n        pass\n"
        )
        (tmp_path / "README.md").write_text(
            "`Pool` (`src/pkg/mod.py`), `Pool.read` (`src/pkg/mod.py`),\n"
            "`Pool.size` (`src/pkg/mod.py`), `helper`\n(`src/pkg/mod.py`) and "
            "`LIMIT` (`src/pkg/mod.py`) resolve;\n"
            "`Pool.write` (`src/pkg/mod.py`), `read` (`src/pkg/mod.py`) and "
            "`Pool` (`src/pkg/gone.py`) do not.\n"
        )
        monkeypatch.setattr(check_docs_links, "REPO", tmp_path)
        assert check_docs_links.check() == [
            "README.md: no `Pool.write` in src/pkg/mod.py",
            "README.md: no `read` in src/pkg/mod.py",
            "README.md: `Pool` cites a missing file: src/pkg/gone.py",
        ]
