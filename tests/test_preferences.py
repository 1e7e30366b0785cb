"""Unit tests for the Preferences mechanism (repro.core.preferences)."""

import os
import re
from pathlib import Path

import pytest

from repro.core.exceptions import PreferencesError
from repro.core.preferences import (
    DEFAULT_BACKEND,
    KNOBS,
    config,
    preferences_path,
    read_preferences,
    resolve_backend_name,
    write_preference,
)

API_MD = Path(__file__).resolve().parents[1] / "docs" / "API.md"


@pytest.fixture
def prefs_file(tmp_path, monkeypatch):
    p = tmp_path / "LocalPreferences.toml"
    monkeypatch.setenv("PYACC_PREFERENCES", str(p))
    monkeypatch.delenv("PYACC_BACKEND", raising=False)
    return p


class TestReadWrite:
    def test_missing_file_reads_empty(self, prefs_file):
        assert read_preferences() == {}

    def test_roundtrip_string(self, prefs_file):
        write_preference("backend", "cuda-sim")
        assert read_preferences() == {"backend": "cuda-sim"}

    def test_roundtrip_preserves_other_keys(self, prefs_file):
        write_preference("backend", "threads")
        write_preference("verbosity", 2)
        assert read_preferences() == {"backend": "threads", "verbosity": 2}

    def test_roundtrip_types(self, prefs_file):
        write_preference("flag", True)
        write_preference("ratio", 1.5)
        prefs = read_preferences()
        assert prefs["flag"] is True
        assert prefs["ratio"] == 1.5

    def test_string_escaping(self, prefs_file):
        write_preference("backend", 'we"ird\\name')
        assert read_preferences()["backend"] == 'we"ird\\name'

    def test_unsupported_value_type_rejected(self, prefs_file):
        with pytest.raises(PreferencesError):
            write_preference("backend", ["a", "list"])

    def test_malformed_file_raises(self, prefs_file):
        prefs_file.write_text("this is [not toml")
        with pytest.raises(PreferencesError):
            read_preferences()

    def test_non_table_section_raises(self, prefs_file):
        prefs_file.write_text('repro = "oops"\n')
        with pytest.raises(PreferencesError):
            read_preferences()

    def test_preferences_path_honours_env(self, prefs_file):
        assert preferences_path() == prefs_file


class TestResolution:
    def test_default_when_nothing_set(self, prefs_file):
        assert resolve_backend_name() == DEFAULT_BACKEND

    def test_file_preference_wins_over_default(self, prefs_file):
        write_preference("backend", "serial")
        assert resolve_backend_name() == "serial"

    def test_env_wins_over_file(self, prefs_file, monkeypatch):
        write_preference("backend", "serial")
        monkeypatch.setenv("PYACC_BACKEND", "interp")
        assert resolve_backend_name() == "interp"

    def test_non_string_backend_pref_rejected(self, prefs_file):
        write_preference("backend", 42)
        with pytest.raises(PreferencesError):
            resolve_backend_name()

    def test_default_backend_is_threads(self):
        # The paper: "The default back end is Julia's Base.Threads
        # implementation, which targets CPUs."
        assert DEFAULT_BACKEND == "threads"


class TestPersistIntegration:
    def test_set_backend_persist_writes_file(self, prefs_file):
        import repro

        repro.set_backend("serial", persist=True)
        assert read_preferences()["backend"] == "serial"
        repro.reset_backend()
        # with no env override, the persisted choice is picked up
        assert repro.active_backend().name == "serial"
        repro.set_backend("serial")  # leave a sane backend for other tests


# ---------------------------------------------------------------------------
# The KNOBS table: one parametrized test per row
# ---------------------------------------------------------------------------


def _plan_seed(plan):
    return None if plan is None else plan.seed


#: name -> (env value, prefs value, override value, second env value,
#: bad values, key applied to a value before comparing).  ``None`` prefs
#: value: the row has no prefs key.  Bad values are rejected from env
#: when they are strings, else from the prefs file; and from the setter
#: on the cached rows (the only ones that take an override), else by the
#: parser itself when the row has no prefs key either.
SAMPLES = {
    "backend": ("serial", "interp", "cuda-sim", "threads", [42], None),
    "executor": ("interpreter", "vector", "native", "codegen", ["llvm"], None),
    "graph": ("off", "off", "on", "on", ["maybe"], None),
    "passes": ("fuse, dse", "peephole", "none", "sink", ["fuse,bogus", ""], None),
    "verify": ("error", "off", "warn", "off", ["loud"], None),
    "validate": ("error", "off", "warn", "off", ["loud", 1], None),
    "faults": ("seed=5,transient=0.1", "seed=7", "seed=9", "off",
               ["bogus=1", "transient=x"], _plan_seed),
    "num_threads": ("7", None, 3, "2", ["lots", "0", "-1"], None),
    "cluster_workers": ("3", None, 5, "4", ["many", "0"], None),
    "cluster_start": ("spawn", None, "spawn", "spawn", ["teleport"], None),
    "compile_cache": ("/tmp/pyacc-a", None, "off", "disabled", [["a", "list"]], None),
    "native_cache": ("/tmp/pyacc-b", None, "/tmp/pyacc-c", "/tmp/pyacc-d", [["a", "list"]],
                     None),
    "cc": ("/nonexistent/cc", None, "/nonexistent/cc2", "/nonexistent/cc3", [["a", "list"]],
           None),
}


def test_every_row_has_samples():
    assert set(SAMPLES) == set(KNOBS)
    assert len({k.env for k in KNOBS.values()}) == len(KNOBS)


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """No ambient PYACC_* setting, an empty prefs file, no overrides."""
    monkeypatch.setenv("PYACC_PREFERENCES", str(tmp_path / "LocalPreferences.toml"))
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)
    saved = {name: knob.set(None) for name, knob in KNOBS.items() if knob.cached}
    yield
    monkeypatch.undo()
    for name, value in saved.items():
        KNOBS[name].set(value)


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestKnobTable:
    def _expect(self, knob, raw, key):
        value = knob.parse(raw)
        return key(value) if key else value

    def test_precedence(self, name, isolated, monkeypatch):
        """override > env > prefs > default, and set(None) re-reads env.

        Only the cached rows (the five with a public setter) take an
        override; the live rows refuse one and re-read env on every get.
        """
        knob = KNOBS[name]
        env_v, prefs_v, over_v, env_v2, _bad, key = SAMPLES[name]
        key = key or (lambda v: v)
        refresh = knob.set if knob.cached else (lambda value: None)

        default = knob.default() if callable(knob.default) else knob.default
        assert knob.lookup() == (default, "default")

        if prefs_v is not None:
            write_preference(knob.prefs_key, prefs_v)
            refresh(None)
            assert key(knob.get()) == self._expect(knob, prefs_v, key)
            assert knob.lookup()[1] == "prefs"

        monkeypatch.setenv(knob.env, env_v)
        refresh(None)
        assert key(knob.get()) == self._expect(knob, env_v, key)
        assert knob.lookup()[1] == "env"

        if not knob.cached:
            with pytest.raises(PreferencesError, match="no process override"):
                knob.set(over_v)
            monkeypatch.setenv(knob.env, env_v2)
            assert key(knob.get()) == self._expect(knob, env_v2, key)
            assert knob.lookup()[1] == "env"
            return

        assert knob.set(over_v) is None
        assert key(knob.get()) == self._expect(knob, over_v, key)
        assert knob.lookup()[1] == "override"

        monkeypatch.setenv(knob.env, env_v2)
        assert key(knob.set(None)) == self._expect(knob, over_v, key)
        assert key(knob.get()) == self._expect(knob, env_v2, key)
        assert knob.lookup()[1] == "env"

    def test_bad_values_rejected(self, name, isolated, monkeypatch):
        knob = KNOBS[name]
        assert SAMPLES[name][4]
        refresh = knob.set if knob.cached else (lambda value: None)
        for bad in SAMPLES[name][4]:
            if isinstance(bad, str) and bad:
                monkeypatch.setenv(knob.env, bad)
                refresh(None)
                with pytest.raises(PreferencesError, match=knob.env):
                    knob.get()
                monkeypatch.delenv(knob.env)
            elif knob.prefs_key is not None:
                write_preference(knob.prefs_key, bad)
                refresh(None)
                with pytest.raises(PreferencesError, match=repr(knob.prefs_key)):
                    knob.get()
                preferences_path().unlink()
            if knob.cached:
                with pytest.raises(PreferencesError, match=f"{name} override"):
                    knob.set(bad)
            elif knob.prefs_key is None and not isinstance(bad, str):
                with pytest.raises((TypeError, ValueError)):
                    knob.parse(bad)
            assert knob.lookup()[1] == "default"


class TestKnobBehaviour:
    def test_cached_rows_do_not_reread_env(self, isolated, monkeypatch):
        knob = KNOBS["verify"]
        assert knob.get() == "warn"
        monkeypatch.setenv("PYACC_VERIFY", "error")
        assert knob.get() == "warn"  # memoized until set(None)
        knob.set(None)
        assert knob.get() == "error"

    def test_live_rows_reread_env(self, isolated, monkeypatch):
        knob = KNOBS["num_threads"]
        monkeypatch.setenv("PYACC_NUM_THREADS", "3")
        assert knob.get() == 3
        monkeypatch.setenv("PYACC_NUM_THREADS", "5")
        assert knob.get() == 5

    def test_empty_env_counts_as_unset(self, isolated, monkeypatch):
        write_preference("graph", "off")
        monkeypatch.setenv("PYACC_GRAPH", "")
        assert KNOBS["graph"].lookup() == ("off", "prefs")

    def test_scoped_restores_previous_override(self, isolated):
        knob = KNOBS["validate"]
        knob.set("off")
        with knob.scoped("error"):
            assert knob.get() == "error"
        assert knob.lookup() == ("off", "override")

    @pytest.mark.parametrize("name", ["num_threads", "cluster_workers"])
    def test_cpu_default_honours_affinity(self, name, isolated, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert KNOBS[name].get() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        expected = 64 if name == "num_threads" else 8
        assert KNOBS[name].get() == expected


def test_config_reports_each_source(isolated, monkeypatch):
    write_preference("graph", "off")
    monkeypatch.setenv("PYACC_EXECUTOR", "interpreter")
    KNOBS["executor"].set(None)
    KNOBS["graph"].set(None)
    KNOBS["verify"].set("error")
    cfg = config()
    assert set(cfg) == set(KNOBS)
    assert cfg["verify"] == {
        "value": "error", "source": "override",
        "env": "PYACC_VERIFY", "prefs_key": "verify",
    }
    assert (cfg["executor"]["value"], cfg["executor"]["source"]) == ("interpreter", "env")
    assert (cfg["graph"]["value"], cfg["graph"]["source"]) == ("off", "prefs")
    assert (cfg["passes"]["value"], cfg["passes"]["source"]) == ("all", "default")


def test_docs_settings_table_lists_every_knob():
    text = API_MD.read_text(encoding="utf-8")
    section = re.search(r"^## Settings\n(.*?)(?=^## )", text, re.S | re.M)
    assert section, "docs/API.md has no '## Settings' section"
    for knob in KNOBS.values():
        assert f"`{knob.env}`" in section.group(1), knob.env
