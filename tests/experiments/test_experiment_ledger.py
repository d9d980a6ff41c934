"""The experiment ledger: canonical rows, digests, and the row-level numeric diff."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import ALL_EXPERIMENTS, ExperimentResult, experiment_cli
from repro.experiments.ledger import (
    REL_TOL,
    Moved,
    canonical,
    diff_entry,
    diff_rows,
    ledger_entry,
    resolved_settings,
    verify_ledger,
    write_artifacts,
)


def make_sweep(cachegen_ttft: float = 0.4321, bandwidths=(1.0, 3.0)):
    """A fake two-method bandwidth sweep; the arguments are what a code change moves."""

    def run_sweep(num_contexts: int = 2, levels=("high", "low")) -> ExperimentResult:
        result = ExperimentResult("sweep", "fake bandwidth sweep")
        for bandwidth in bandwidths:
            result.add_row(bandwidth_gbps=bandwidth, method="text", ttft_s=2.0 / bandwidth)
            result.add_row(
                bandwidth_gbps=bandwidth, method="cachegen", ttft_s=cachegen_ttft / bandwidth
            )
        return result

    return run_sweep


def entry_of(run):
    return ledger_entry(run, run())


class TestCanonicalForm:
    def test_numpy_scalars_and_tuples_become_plain_json(self):
        row = {
            "count": np.int64(3),
            "ratio": np.float64(0.1) + np.float64(0.2),
            "ok": np.bool_(True),
            "pair": (np.float32(0.5), "x"),
            "none": None,
        }
        plain = canonical(row)
        assert plain == {
            "count": 3,
            "ratio": 0.1 + 0.2,
            "ok": True,
            "pair": [0.5, "x"],
            "none": None,
        }
        kinds = [type(value) for value in plain.values()]
        assert kinds == [int, float, bool, list, type(None)]
        assert json.loads(json.dumps(plain)) == plain

    def test_unknown_types_are_refused_not_stringified(self):
        with pytest.raises(TypeError, match="no canonical form"):
            canonical({"cell": object()})

    def test_numpy_rows_digest_like_python_rows(self):
        def run_numpy():
            result = ExperimentResult("n", "numpy cells")
            result.add_row(method="a", value=np.float64(1.5), count=np.int32(2))
            return result

        def run_python():
            result = ExperimentResult("n", "numpy cells")
            result.add_row(method="a", value=1.5, count=2)
            return result

        assert entry_of(run_numpy)["rows_sha256"] == entry_of(run_python)["rows_sha256"]

    def test_settings_are_the_signature_defaults_plus_the_codec_config(self):
        settings = resolved_settings(make_sweep())
        assert settings["num_contexts"] == 2
        assert settings["levels"] == ["high", "low"]
        assert settings["CacheGenConfig"]["chunk_tokens"] == 1500
        assert [level["name"] for level in settings["CacheGenConfig"]["levels"]] == [
            "high",
            "medium",
            "low",
            "lowest",
        ]


class TestDiff:
    def test_a_move_the_printed_table_hides_is_reported_with_its_cell(self):
        before, after = make_sweep(0.4321), make_sweep(0.4322)
        # Three decimals cannot tell the two runs apart ...
        assert before().format_table() == after().format_table()
        reference, entry = entry_of(before), entry_of(after)
        assert entry["text_sha256"] == reference["text_sha256"]
        # ... the ledger names the row, the column and the size of the move.
        moves = diff_entry(reference, entry)
        assert len(moves) == 2
        assert moves[1].startswith("row [bandwidth_gbps=3.0, method='cachegen'] ttft_s: ")
        assert moves[1].endswith("(rel 2.3e-04)")
        assert repr(0.4322 / 3.0) in moves[1]

    def test_noise_within_the_tolerance_reads_equal(self):
        noisy = make_sweep(0.4321 * (1 + REL_TOL / 2))
        reference, entry = entry_of(make_sweep()), entry_of(noisy)
        assert entry["rows_sha256"] != reference["rows_sha256"]
        assert diff_entry(reference, entry) == []
        beyond = entry_of(make_sweep(0.4321 * (1 + 4 * REL_TOL)))
        assert len(diff_entry(reference, beyond)) == 2

    def test_added_and_removed_rows_are_reported_by_key(self):
        moves = diff_entry(
            entry_of(make_sweep(bandwidths=(1.0, 3.0))),
            entry_of(make_sweep(bandwidths=(3.0, 10.0))),
        )
        assert moves == [
            "row [bandwidth_gbps=1.0, method='text'] removed",
            "row [bandwidth_gbps=1.0, method='cachegen'] removed",
            "row [bandwidth_gbps=10.0, method='text'] added",
            "row [bandwidth_gbps=10.0, method='cachegen'] added",
        ]

    def test_heterogeneous_rows_are_keyed_by_their_own_leading_cells(self):
        rows = [
            {"panel": "flops", "method": "text", "tflops": 1.0},
            {"panel": "flops", "method": "cachegen", "tflops": 0.1},
            {"panel": "storage", "representation": "fp16", "size_gb": 2.0},
        ]
        moved = [dict(row) for row in rows]
        moved[2]["size_gb"] = 2.5
        del moved[1]["tflops"]
        assert diff_rows(rows, moved) == [
            "row [panel='flops', method='cachegen'] tflops: 0.1 -> (absent)",
            "row [panel='storage', representation='fp16'] size_gb: 2.0 -> 2.5 (rel 2.0e-01)",
        ]

    def test_flags_none_and_nan_cells(self):
        rows = [
            {"method": "a", "meets_slo": True, "mttr_s": None, "gap": float("nan")},
            {"method": "b", "meets_slo": True, "mttr_s": 1.0, "gap": 0.0},
        ]
        reloaded = json.loads(json.dumps(rows))
        assert diff_rows(rows, reloaded) == []
        reloaded[0]["meets_slo"] = False
        reloaded[1]["mttr_s"] = None
        assert diff_rows(rows, reloaded) == [
            "row [method='a'] meets_slo: True -> False",
            "row [method='b'] mttr_s: 1.0 -> None",
        ]

    def test_rows_no_prefix_tells_apart_are_numbered(self):
        rows = [{"method": "a", "x": 1.0}, {"method": "a", "x": 1.0}]
        assert diff_rows(rows, rows[:1]) == ["row [method='a', x=1.0 #2] removed"]

    def test_a_changed_default_is_reported_as_a_setting(self):
        def run_more(num_contexts: int = 3, levels=("high", "low")):
            return make_sweep()()

        assert diff_entry(entry_of(make_sweep()), entry_of(run_more)) == [
            "setting num_contexts: 2 -> 3"
        ]

    def test_a_rendering_change_on_equal_rows_is_reported(self):
        reference = entry_of(make_sweep())
        entry = dict(reference, text_sha256="0" * 64)
        assert diff_entry(reference, entry) == ["text: the rendering changed (rows equal)"]


    def test_a_ledger_whose_digest_is_not_of_its_rows_is_reported(self):
        reference = entry_of(make_sweep())
        edited = json.loads(json.dumps(reference))
        edited["rows"][0]["ttft_s"] = 2.5
        assert diff_entry(edited, reference) == [
            "ledger: rows_sha256 is not the digest of the ledger's rows"
        ]


class TestAllAndVerify:
    def test_round_trip_reads_equal_and_writes_the_printed_tables(self, tmp_path):
        experiments = {"sweep": make_sweep(), "other": make_sweep(0.5)}
        summary = write_artifacts(tmp_path, experiments)
        assert summary.splitlines()[-1] == f"wrote {tmp_path / 'ledger.json'} and 2 tables"
        assert (tmp_path / "sweep.txt").read_text() == make_sweep()().format_table() + "\n"
        ledger = json.loads((tmp_path / "ledger.json").read_text())
        assert set(ledger) == {"environment", "experiments"}
        assert set(ledger["environment"]) == {"python", "numpy", "platform", "machine"}
        assert ledger["experiments"]["sweep"] == entry_of(make_sweep())
        # One row per line: a figure-diff is a line diff.
        text = (tmp_path / "ledger.json").read_text()
        assert sum(line.startswith('    {"bandwidth_gbps"') for line in text.splitlines()) == 8
        assert verify_ledger(tmp_path / "ledger.json", experiments) == "sweep: equal\nother: equal"

    def test_verify_lists_what_moved_and_which_experiments_are_missing(self, tmp_path):
        write_artifacts(tmp_path, {"sweep": make_sweep(), "gone": make_sweep()})
        with pytest.raises(Moved) as moved:
            verify_ledger(
                tmp_path / "ledger.json",
                {"sweep": make_sweep(0.4322), "new": make_sweep()},
            )
        report = str(moved.value).splitlines()
        assert report[0] == "sweep: moved"
        assert report[1].startswith(
            "  row [bandwidth_gbps=1.0, method='cachegen'] ttft_s: 0.4321 -> 0.4322"
        )
        assert "gone: moved" in report
        assert "  in the ledger, not registered in ALL_EXPERIMENTS" in report
        assert "  registered in ALL_EXPERIMENTS, not in the ledger" in report
        assert report[-1] == "moved: sweep, gone, new"

    def test_cli_subcommands(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("repro.experiments.ALL_EXPERIMENTS", {"sweep": make_sweep()})
        assert "wrote" in experiment_cli(["all", "--out", str(tmp_path)])
        ledger_path = str(tmp_path / "ledger.json")
        assert experiment_cli(["verify", ledger_path]) == "sweep: equal"
        monkeypatch.setattr("repro.experiments.ALL_EXPERIMENTS", {"sweep": make_sweep(0.5)})
        with pytest.raises(Moved, match="sweep: moved"):
            experiment_cli(["verify", ledger_path])
        for argv in (
            ["all"],
            ["verify"],
            ["sweep", "--out", str(tmp_path)],
            ["sweep", ledger_path],
            ["all", "--out", str(tmp_path), "--gpu-workers", "2"],
        ):
            with pytest.raises(SystemExit):
                experiment_cli(argv)
        capsys.readouterr()

    def test_all_in_one_process_matches_stand_alone_runs(self, tmp_path):
        """No state leaks from one experiment into the next one's rows."""
        names = ("figure4", "appendix-e", "figure5")
        write_artifacts(tmp_path, {name: ALL_EXPERIMENTS[name] for name in names})
        ledger = json.loads((tmp_path / "ledger.json").read_text())["experiments"]
        for name in reversed(names):
            alone = ALL_EXPERIMENTS[name]()
            assert ledger[name]["rows"] == canonical(alone.rows)
            assert (tmp_path / f"{name}.txt").read_text() == experiment_cli([name]) + "\n"
