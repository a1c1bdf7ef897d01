"""``REPRO_*`` settings: one parser for the on/off switches, a typo
fails loudly, and one documented table lists every variable."""

import pathlib
import re

import pytest

from repro.obs.epochs import resolve_epoch_trace
from repro.obs.lineage import LineageTrace
from repro.obs.profiler import env_profile_default
from repro.obs.reqtrace import resolve_req_trace
from repro.util.settings import parse_bool_setting, resolve_bool_env

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestParseBoolSetting:
    @pytest.mark.parametrize("word", ["1", "true", "on", "yes", " TRUE ", "Yes"])
    def test_on_words(self, word):
        assert parse_bool_setting("REPRO_X", word) is True

    @pytest.mark.parametrize("word", ["", "  ", "0", "false", "off", "no", " Off "])
    def test_off_words(self, word):
        assert parse_bool_setting("REPRO_X", word) is False

    @pytest.mark.parametrize("word", ["ture", "flase", "2", "enabled", "y"])
    def test_anything_else_names_the_variable(self, word):
        with pytest.raises(ValueError, match="REPRO_X"):
            parse_bool_setting("REPRO_X", word)

    def test_env_default_when_unset_or_blank(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert resolve_bool_env("REPRO_X", True) is True
        assert resolve_bool_env("REPRO_X", False) is False
        monkeypatch.setenv("REPRO_X", " ")
        assert resolve_bool_env("REPRO_X", True) is True
        monkeypatch.setenv("REPRO_X", "off")
        assert resolve_bool_env("REPRO_X", True) is False


# (variable, a call that reads it, what the call returns with it unset)
SWITCHES = [
    ("REPRO_LINEAGE", lambda: LineageTrace().enabled, False),
    ("REPRO_PROFILE", env_profile_default, False),
    ("REPRO_EPOCH_TRACE", resolve_epoch_trace, False),
    ("REPRO_REQ_TRACE", resolve_req_trace, False),
]


@pytest.fixture
def artifact_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))


@pytest.mark.parametrize(
    "env, read, default", SWITCHES, ids=[env for env, _, _ in SWITCHES]
)
class TestSwitches:
    def test_typo_raises_naming_the_variable(
        self, monkeypatch, artifact_dir, env, read, default
    ):
        monkeypatch.setenv(env, "ture" if default is False else "flase")
        with pytest.raises(ValueError, match=env):
            read()

    def test_default_and_both_words(
        self, monkeypatch, artifact_dir, env, read, default
    ):
        monkeypatch.delenv(env, raising=False)
        assert read() is default
        monkeypatch.setenv(env, "Yes")
        assert read() is True
        monkeypatch.setenv(env, " off ")
        assert read() is False


def _table_names(markdown: str, heading: str) -> list:
    """First-column ``REPRO_*`` names of the table under ``heading``."""
    section = markdown.split(heading, 1)[1]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        if line.startswith("|"):
            rows.append(line.split("|")[1])
    return [n for cell in rows for n in re.findall(r"REPRO_[A-Z0-9_]+", cell)]


def test_env_table_lists_every_knob():
    """OBSERVABILITY.md's table names each variable the package reads,
    once, and nothing else."""
    in_source = {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in re.findall(r"REPRO_[A-Z0-9_]+", path.read_text())
    }
    table = _table_names(
        (ROOT / "OBSERVABILITY.md").read_text(), "## Environment variables"
    )
    assert len(table) == len(set(table)), "a variable is listed twice"
    assert set(table) == in_source
