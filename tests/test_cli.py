"""The python -m repro command-line entry point (registry-driven)."""

import json

import pytest

from repro.__main__ import main
from repro.api import load_all, names


class TestCLI:
    def test_list_renders_whole_registry(self, capsys):
        # One line per registry entry, in registration order (the
        # canonical fifteen-artifact set itself is asserted in
        # tests/test_api.py; don't duplicate the literal here).
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        load_all()
        assert [line.split()[0] for line in lines] == names()

    def test_list_json_is_a_machine_readable_registry_dump(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        load_all()
        assert [e["name"] for e in entries] == names()
        for entry in entries:
            assert set(entry) >= {"name", "title", "module", "quick", "full"}
            assert isinstance(entry["quick"], dict)
            assert isinstance(entry["full"], dict)
        # The presets are the registry's, verbatim.
        fig5 = next(e for e in entries if e["name"] == "fig5")
        assert fig5["quick"] == {"n_samples": 150}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figX"])

    def test_runs_cheap_experiment(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "done in" in out

    def test_runs_table2(self, capsys):
        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "alpha1" in out

    def test_json_envelope(self, capsys):
        assert main(["fig2", "--quick", "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["experiment"] == "fig2"
        assert decoded["spec"]["kind"] == "ExperimentSpec"
        assert decoded["backend"] == "auto"
        assert "payload" in decoded

    def test_json_multi_experiment_is_jsonl(self, capsys):
        assert main(["fig2", "table2", "--quick", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["experiment"] for line in lines] == [
            "fig2", "table2"
        ]

    def test_seed_and_backend_flags(self, capsys):
        assert main(["fig2", "--quick", "--seed", "7", "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["seed"] == 7
        assert decoded["backend"] == "auto"
        # The assembly path is no longer user-selectable.
        with pytest.raises(SystemExit):
            main(["fig5", "--backend", "generic"])
