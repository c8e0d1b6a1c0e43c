import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modham import SchemaError, parse_config
from modham.cli import main as cli_main
from modham.config import config_to_dict, resolve_region
from modham.regions import Region
from modham.runner import entropy_scan, format_float, run, to_json_text


def minimal_config(**overrides):
    cfg = {
        "model": {"n_sites": 8, "mass": 1.0, "coupling": 1.0, "boundary": "dirichlet"},
        "region": {"half": {}},
        "tasks": ["kernels"],
    }
    cfg.update(overrides)
    return cfg


def count_calls(monkeypatch, names):
    """Count calls to modham functions through every namespace that binds them."""
    import sys

    modules = [
        module
        for key, module in list(sys.modules.items())
        if key == "modham" or key.startswith("modham.")
    ]
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def dense_builds(monkeypatch):
    """Record every dense n x n correlator a vacuum builds from its symbol."""
    from modham import lattice

    built, original = [], lattice._block

    def recorded(windows, index):
        if index is Ellipsis:
            built.append(windows)
        return original(windows, index)

    monkeypatch.setattr(lattice, "_block", recorded)
    return built


def counted_frames(monkeypatch):
    """Record every subspace frame build."""
    from modham import subspace

    frames = []

    class CountingFrame(subspace._SubspaceFrame):
        def __init__(self, *args):
            frames.append(args)
            super().__init__(*args)

    monkeypatch.setattr(subspace, "_SubspaceFrame", CountingFrame)
    return frames


class TestParseConfig:
    def test_minimal_with_defaults(self):
        config = parse_config(minimal_config())
        assert config.model.n_sites == 8
        assert config.tolerances.route_tol == 1e-7
        assert config.tolerances.clip is None
        assert config.output.formats == ("json",)
        assert resolve_region(config) == Region(range(4))

    def test_unknown_key_strict(self):
        with pytest.raises(SchemaError) as info:
            parse_config(minimal_config(bogus=1))
        assert "bogus" in str(info.value)

    def test_unknown_key_lenient(self):
        config = parse_config(minimal_config(bogus=1), lenient=True)
        assert config.model.n_sites == 8

    def test_nested_unknown_key_path(self):
        bad = minimal_config()
        bad["model"]["color"] = "red"
        with pytest.raises(SchemaError) as info:
            parse_config(bad)
        assert info.value.path == "model"

    def test_interval_out_of_range(self):
        with pytest.raises(SchemaError) as info:
            parse_config(minimal_config(region={"interval": {"start": 6, "length": 4}}))
        assert info.value.path == "region.interval"

    def test_duplicate_sites(self):
        with pytest.raises(SchemaError) as info:
            parse_config(minimal_config(region={"sites": [1, 1, 2]}))
        assert info.value.path == "region.sites"

    def test_tasks_validation(self):
        with pytest.raises(SchemaError):
            parse_config(minimal_config(tasks=[]))
        with pytest.raises(SchemaError):
            parse_config(minimal_config(tasks=["fly"]))

    def test_scan_requires_block(self):
        with pytest.raises(SchemaError) as info:
            parse_config(minimal_config(tasks=["entropy_scan"]))
        assert info.value.path == "scan"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "nope.json")

    def test_round_trip(self):
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 2, "length": 3}},
                tasks=["kernels", "kms"],
                tolerances={"kms_tol": 1e-6, "clip": 1e-8},
                scan={"lengths": [2, 4], "start": 1},
            )
        )
        assert parse_config(config_to_dict(config)) == config


BROKEN_JSON = '{"model": {"n_sites": 8,'
BOTH_KINDS = "exactly one of 'half', 'sites', 'interval' required, got"


@pytest.mark.parametrize(
    "source, path, message",
    [
        (minimal_config(model={"mass": 1.0}), "model.n_sites", "missing required key"),
        (minimal_config(region={"interval": {"length": 2}}), "region.interval.start",
         "missing required key"),
        (minimal_config(region={"interval": {"start": 2}}), "region.interval.length",
         "missing required key"),
        (minimal_config(model=[8, 1.0]), "model", "expected an object, got list"),
        (minimal_config(model={"n_sites": True, "mass": 1.0}), "model.n_sites",
         "expected an integer, got True"),
        (minimal_config(model={"n_sites": 8.0, "mass": 1.0}), "model.n_sites",
         "expected an integer, got 8.0"),
        (minimal_config(model={"n_sites": 8}), "model.mass", "missing required key"),
        (minimal_config(model={"n_sites": 8, "mass": "1"}), "model.mass",
         "expected a number, got '1'"),
        (minimal_config(model={"n_sites": 8, "mass": -1}), "model.mass",
         "must be >= 0.0, got -1.0"),
        (minimal_config(model={"n_sites": 8, "mass": 1.0, "boundary": "open"}),
         "model.boundary", "must be 'dirichlet' or 'periodic', got 'open'"),
        (minimal_config(region={}), "region", f"{BOTH_KINDS} []"),
        (minimal_config(region={"half": {}, "sites": [1]}), "region",
         f"{BOTH_KINDS} ['half', 'sites']"),
        (minimal_config(region={"sites": [1, 2.0]}), "region.sites",
         "expected a list of integers"),
        (minimal_config(region={"sites": []}), "region.sites", "region must be non-empty"),
        (minimal_config(region={"sites": [3, 8]}), "region.sites",
         "site indices must lie in [0, 8), got [3, 8]"),
        (minimal_config(output={"formats": "json"}), "output.formats",
         "expected a non-empty list"),
        (minimal_config(output={"formats": ["xml"]}), "output.formats",
         "unknown format 'xml'"),
        (minimal_config(output={"formats": ["json", "json"]}), "output.formats",
         "duplicate formats"),
        (minimal_config(scan={"lengths": "2"}), "scan.lengths", "expected a list of integers"),
        (minimal_config(scan={"lengths": [2, 0]}), "scan.lengths",
         "interval length 0 outside [1, 8]"),
        (minimal_config(scan={"lengths": [2], "start": "1"}), "scan.start",
         "expected an integer or null"),
        (minimal_config(scan={"lengths": [2], "start": 8}), "scan.start",
         "start 8 outside [0, 8)"),
        (BROKEN_JSON, "", "invalid JSON: {error}"),
        (Path(BROKEN_JSON), "", "invalid JSON in {file}: {error}"),
        ({"model": {"n_sites": 8, "mass": 1.0}, "region": {"half": {}}}, "tasks",
         "missing required key"),
        (minimal_config(tasks=["kernels", "kernels", "kms", "kms"]), "tasks",
         "duplicate tasks"),
    ],
    ids=["no-n_sites", "no-start", "no-length", "non-object-section", "bool-n_sites",
         "float-n_sites", "no-mass", "string-mass", "negative-mass", "bad-boundary",
         "no-region-kind", "two-region-kinds", "non-integer-sites", "empty-sites",
         "out-of-range-sites", "formats-not-a-list", "unknown-format",
         "duplicate-formats", "lengths-not-a-list", "length-out-of-range",
         "non-integer-start", "start-out-of-range", "invalid-json-string",
         "invalid-json-file", "no-tasks", "duplicate-tasks"],
)
def test_schema_errors_name_their_path(tmp_path, source, path, message):
    # every schema failure names the offending key in .path and in its text
    if isinstance(source, Path):  # the document is the content of a file
        source = tmp_path / "config.json"
        source.write_text(BROKEN_JSON)
        message = message.replace("{file}", str(source))
    if "{error}" in message:
        with pytest.raises(json.JSONDecodeError) as decoded:
            json.loads(BROKEN_JSON)
        message = message.replace("{error}", str(decoded.value))
    with pytest.raises(SchemaError) as info:
        parse_config(source)
    assert info.value.path == path
    assert str(info.value) == (f"{path}: {message}" if path else message)


class TestSerializer:
    def test_float_formatting(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(float("nan")) == '"nan"'
        assert format_float(float("inf")) == '"inf"'

    def test_deterministic_rendering(self):
        text1 = to_json_text({"b": [1.0, 2.5], "a": {"x": 0.1}})
        text2 = to_json_text({"a": {"x": 0.1}, "b": [1.0, 2.5]})
        assert text1 == text2
        json.loads(text1)  # stays valid JSON

    def test_rendering_is_pinned(self):
        # Python floats in a list take the writer's flat path, numpy scalars
        # the recursive one; both must render the same text
        payload = {
            "floats": [float("nan"), float("inf"), float("-inf"), np.float64(0.1), -0.0, 1e-300],
            "ints": [np.int64(3), np.int32(-2), 7],
            "nested": [[1.0, 2.5], [0.1]],
            "empty": [],
        }
        assert to_json_text(payload) == (
            '{\n  "empty": [],\n  "floats": [\n    "nan",\n    "inf",\n    "-inf",\n'
            '    0.10000000000000001,\n    -0,\n    1e-300\n  ],\n'
            '  "ints": [\n    3,\n    -2,\n    7\n  ],\n'
            '  "nested": [\n    [\n      1,\n      2.5\n    ],\n'
            '    [\n      0.10000000000000001\n    ]\n  ]\n}'
        )
        assert to_json_text([np.float64("nan"), np.float64(2.5)]) == '[\n  "nan",\n  2.5\n]'


class TestRunner:
    def test_success_writes_files(self, tmp_path):
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["kernels", "flow"],
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        bundle, code = run(config)
        assert code == 0
        assert (tmp_path / "out" / "kernels.json").exists()
        assert (tmp_path / "out" / "residuals.json").exists()
        payload = json.loads((tmp_path / "out" / "kernels.json").read_text())
        assert payload["matrices"]["L_block"]["rows"] == 4
        assert payload["matrices"]["X_R"]["site_index_map"] == [3, 4]

    def test_not_standard_exit_code(self, tmp_path):
        config = parse_config(
            minimal_config(
                region={"sites": list(range(8))},
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        _, code = run(config)
        assert code == 3
        error = json.loads((tmp_path / "out" / "error.json").read_text())
        assert error["error"]["type"] == "NotStandard"

    def test_unreachable_tolerance_exit_code(self, tmp_path):
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["kms"],
                tolerances={"kms_tol": 1e-15},
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        _, code = run(config)
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["kernels", "kms"],
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        run(config)
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("kernels.json", "residuals.json")
        }
        run(config)
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob

    def test_entropy_scan_rows(self, tmp_path):
        config = parse_config(
            {
                "model": {"n_sites": 64, "mass": 0.1, "coupling": 1.0,
                          "boundary": "dirichlet"},
                "region": {"half": {}},
                "tasks": ["entropy_scan"],
                "scan": {"lengths": [2, 4, 8, 64]},
                "output": {"directory": str(tmp_path / "out"),
                           "formats": ["csv", "json"]},
            }
        )
        bundle, code = run(config)
        assert code == 0
        rows = bundle.scan_rows
        entropies = [r["entropy"] for r in rows if "entropy" in r]
        assert entropies == sorted(entropies) and len(entropies) == 3
        assert "error" in rows[-1] and "NotStandard" in rows[-1]["error"]
        assert (tmp_path / "out" / "entropy_scan.csv").exists()

    def test_scan_trace_goes_to_metadata_only(self, tmp_path):
        # the sweep's window, error rows and time go to metadata.json; the
        # scan tables keep their columns and stay byte-identical on a rerun
        config = parse_config(
            minimal_config(
                tasks=["entropy_scan"],
                scan={"lengths": [3, 6, 2, 8, 6], "start": 1},
                output={"directory": str(tmp_path / "out"), "formats": ["csv", "json"]},
            )
        )
        tables = ("entropy_scan.json", "entropy_scan.csv")
        blobs = []
        for _ in range(2):
            assert run(config)[1] == 0
            blobs.append([(tmp_path / "out" / name).read_bytes() for name in tables])
        assert blobs[0] == blobs[1]
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["vacuum_seconds"] > 0.0
        meta = meta["entropy_scan"]
        assert set(meta) == {"window_sites", "error_rows", "sweep_seconds"}
        assert (meta["window_sites"], meta["error_rows"]) == (6, 1)
        assert meta["sweep_seconds"] > 0.0
        rows = json.loads(blobs[0][0])["rows"]
        assert set(rows[3]) == {"length", "error"}
        assert all(set(row) == {"length", "entropy", "c_min", "c_max"}
                   for row in rows[:3] + rows[4:])
        assert blobs[0][1].decode().splitlines()[0] == "length,entropy,c_min,c_max,error"
        assert b"sweep" not in blobs[0][0] + blobs[0][1]

    def test_any_other_modham_error_exits_3(self, tmp_path, monkeypatch):
        # the exit code follows the error class: a modham error that is
        # neither a validation nor a schema error is a construction error
        from modham import runner
        from modham.errors import DimensionMismatch

        def mismatched(model):
            raise DimensionMismatch("stage failed")

        monkeypatch.setattr(runner, "vacuum_state", mismatched)
        config = parse_config(minimal_config(output={"directory": str(tmp_path / "out")}))
        assert run(config)[1] == 3
        error = json.loads((tmp_path / "out" / "error.json").read_text())["error"]
        assert error == {"type": "DimensionMismatch", "message": "stage failed",
                         "exit_code": 3}

    def test_quadrature_not_converged_exits_2(self, tmp_path, monkeypatch):
        from modham import crosscheck
        from modham.errors import QuadratureNotConverged

        def stalled(*args, **kwargs):
            raise QuadratureNotConverged("evaluation cap reached")

        monkeypatch.setattr(crosscheck, "_resolvent_quadrature", stalled)
        config = parse_config(minimal_config(
            region={"interval": {"start": 3, "length": 2}},
            tasks=["kernels", "crosscheck"],
            output={"directory": str(tmp_path / "out")},
        ))
        assert run(config)[1] == 2
        error = json.loads((tmp_path / "out" / "error.json").read_text())["error"]
        assert error == {"type": "QuadratureNotConverged",
                         "message": "evaluation cap reached", "exit_code": 2}
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["error.json"]

    def test_failed_write_exits_4(self, tmp_path, monkeypatch):
        from modham import runner

        def disk_full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(runner, "_write_outputs", disk_full)
        config = parse_config(minimal_config(
            region={"interval": {"start": 3, "length": 2}},
            output={"directory": str(tmp_path / "out")},
        ))
        assert run(config)[1] == 4
        error = json.loads((tmp_path / "out" / "error.json").read_text())["error"]
        assert error == {"type": "OSError", "message": "[Errno 28] No space left on device",
                         "exit_code": 4}

    def test_one_vacuum_and_one_standardness_check_per_run(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, ["vacuum_state"])
        frames = counted_frames(monkeypatch)
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["kernels", "flow", "kms", "entropy_scan"],
                scan={"lengths": [2, 4]},
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        bundle, code = run(config)
        assert code == 0 and len(bundle.scan_rows) == 2
        # the standardness check builds the run's one subspace frame
        assert (calls["vacuum_state"], len(frames)) == (1, 1)

    def test_one_standardness_check_per_run_in_every_namespace(
        self, tmp_path, monkeypatch
    ):
        frames = counted_frames(monkeypatch)
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["kernels", "flow", "kms", "crosscheck"],
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        bundle, code = run(config)
        assert code == 0 and bundle.reports["kms"]["method"] != "none"
        # the crosscheck reuses the frame of the run's standardness check
        assert len(frames) == 1

    def test_scan_reads_restrictions_only(self, tmp_path, monkeypatch):
        # a scan-only run builds no 2n x 2n state field, no mode basis and no
        # dense n x n correlator: its blocks are gathered from the symbols
        import modham.runner as runner_module

        built = dense_builds(monkeypatch)

        states = []
        original = runner_module.vacuum_state

        def recorded(model):
            states.append(original(model))
            return states[-1]

        monkeypatch.setattr(runner_module, "vacuum_state", recorded)
        counts = count_calls(monkeypatch, ["product_spectrum"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(
            model={"n_sites": 32, "mass": 0.1},
            tasks=["entropy_scan"],
            scan={"lengths": [1, 2, 8, 31, 32]},
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )))
        assert cli_main(["run", str(path)]) == 0
        (state,) = states
        assert not {"I_mat", "mu_gram", "epsilon", "X_full", "P_full"} & set(vars(state))
        assert counts["product_spectrum"] == 0 and built == []
        rows = json.loads((tmp_path / "out" / "entropy_scan.json").read_text())["rows"]
        assert [("error" in row) for row in rows] == [False] * 4 + [True]

    def test_raw_run_solves_no_eigenproblem_above_n(self, tmp_path, monkeypatch):
        # the frame factors X and P by Cholesky and takes one thin SVD of the
        # 2n x 4r system; every eigenproblem lives on the 4r-dimensional H_L
        # or on restrictions, and no dense 2n x 2n state field is built; the
        # frame builds the dense X and P once each
        import modham.runner as runner_module

        states = []
        original_vacuum = runner_module.vacuum_state

        def recorded(model):
            states.append(original_vacuum(model))
            return states[-1]

        monkeypatch.setattr(runner_module, "vacuum_state", recorded)
        calls = []
        for name in ("eig", "eigh", "eigvalsh", "svd"):
            def sized(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append((_name, a.shape))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, sized)
        built = dense_builds(monkeypatch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(
            model={"n_sites": 64, "mass": 0.3},
            region={"interval": {"start": 30, "length": 3}},
            tasks=ALL_TASKS,
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )))
        assert cli_main(["run", str(path)]) == 0
        (state,) = states
        assert ("svd", (128, 12)) in calls
        assert max(min(shape) for _, shape in calls) < 64
        assert not {"I_mat", "mu_gram"} & set(vars(state))
        assert len(built) == 2 and built[0] is not built[1]
        assert {"X_full", "P_full"} <= set(vars(state))

    def test_entropy_scan_returns_the_rows_run_writes(self, tmp_path):
        config = parse_config(minimal_config(
            tasks=["entropy_scan"],
            scan={"lengths": [2, 8, 4]},  # 8 covers the lattice: an error row
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        ))
        rows = entropy_scan(config)
        bundle, code = run(config)
        assert code == 0 and rows == bundle.scan_rows and "error" in rows[1]
        written = json.loads((tmp_path / "out" / "entropy_scan.json").read_text())
        assert written["rows"] == rows

    def test_empty_scan(self, tmp_path):
        config = parse_config(
            minimal_config(
                tasks=["entropy_scan"],
                scan={"lengths": []},
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        bundle, code = run(config)
        assert code == 0 and bundle.scan_rows == []


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(**overrides)))
        return str(path)

    def test_run_success(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            region={"interval": {"start": 3, "length": 2}},
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )
        assert cli_main(["run", path]) == 0
        assert "exit 0" in capsys.readouterr().out

    def test_check_only_validates(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli_main(["check", path]) == 0
        assert not (Path("modham-out")).exists()

    def test_schema_error_exit_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_config(bogus=2)))
        assert cli_main(["run", str(path)]) == 4

    def test_missing_file_exit_4(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "gone.json")]) == 4

    def test_clip_flag_enables_degenerate_half(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )
        # the raw half-chain is machine-degenerate: refuses without clip
        assert cli_main(["run", path]) == 3
        assert cli_main(["run", path, "--clip", "1e-6", "--output-dir",
                         str(tmp_path / "out2")]) == 0

    def test_readme_configuration_example(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"Configuration schema.*?```json\n(.*?)```", readme, re.S)
        path = tmp_path / "config.json"
        path.write_text(block.group(1))
        code = cli_main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr()
        assert (tmp_path / "out" / "entropy_scan.json").exists()

    def test_readme_library_quick_start(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Library quick start.*?```python\n(.*?)```", readme, re.S)
        namespace = {}
        exec(block.group(1), namespace)
        assert namespace["agreement"].max_residual <= 1e-7

    def test_scan_command(self, tmp_path, capsys):
        # scan runs the entropy_scan task in place of the configured tasks
        out = tmp_path / "out"
        path = self.write_config(
            tmp_path,
            tasks=["kernels"],
            scan={"lengths": [2, 4]},
            output={"directory": str(out), "formats": ["csv"]},
        )
        assert cli_main(["scan", path]) == 0
        assert "exit 0: ok" in capsys.readouterr().out
        table = (out / "entropy_scan.csv").read_text()
        assert table.startswith("length,entropy,c_min,c_max,error")
        assert not (out / "kernels.json").exists()
        # without a 'scan' block the replaced task list fails the schema
        path = self.write_config(tmp_path, tasks=["kernels"])
        assert cli_main(["scan", path, "--output-dir", str(tmp_path / "none")]) == 4
        assert capsys.readouterr().err.startswith(
            "error: SchemaError: scan: the entropy_scan task requires a 'scan' block"
        )
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("command", ["run", "check", "scan"])
    def test_missing_config_file_reports_like_an_aborted_run(
        self, tmp_path, capsys, command
    ):
        path = tmp_path / "absent.json"
        assert cli_main([command, str(path), "--output-dir", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: FileNotFoundError: config file not found: {path}\n"
        assert captured.out == "exit 4: io error\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_names_the_schema_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path, model={"n_sites": 8, "mass": 1.0, "bogus": 1})
        assert cli_main(["run", path]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: SchemaError: model: unknown key(s) ['bogus']")
        assert captured.out == "exit 4: io error\n"

    def test_scan_unusable_output_dir_exits_4_before_the_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sweep(*args):
            raise AssertionError("the sweep ran before the output directory")

        monkeypatch.setattr("modham.runner._scan_rows", no_sweep)
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        path = self.write_config(
            tmp_path, tasks=["entropy_scan"], scan={"lengths": [2, 4]}
        )
        flags = ["--output-dir", str(blocker / "sub")]
        assert cli_main(["scan", path, *flags]) == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert cli_main(["run", path, *flags]) == 4

    def test_run_unusable_output_dir_names_the_error_on_stderr(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        path = self.write_config(tmp_path, region={"interval": {"start": 3, "length": 2}})
        assert cli_main(["run", path, "--output-dir", str(blocker / "sub")]) == 4
        assert "error: NotADirectoryError: " in capsys.readouterr().err

    def test_python_m_modham_runs_from_the_source_tree(self, tmp_path):
        path = self.write_config(
            tmp_path,
            region={"interval": {"start": 3, "length": 2}},
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "modham", "run", path],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "exit 0" in proc.stdout
        assert (tmp_path / "out" / "kernels.json").exists()

    def test_scan_and_run_write_identical_tables(self, tmp_path):
        path = self.write_config(
            tmp_path,
            tasks=["entropy_scan"],
            scan={"lengths": [2, 4, 8]},
            output={"directory": str(tmp_path / "unused"), "formats": ["csv", "json"]},
        )
        for command in ("scan", "run"):
            out = str(tmp_path / command)
            assert cli_main([command, path, "--output-dir", out]) == 0
        for name in ("entropy_scan.json", "entropy_scan.csv"):
            scanned = (tmp_path / "scan" / name).read_bytes()
            assert scanned == (tmp_path / "run" / name).read_bytes()
        assert b"NotStandard" in scanned  # the 8-site row covers the chain
        # scan is run: it writes the same metadata, the sweep's trace too
        for command in ("scan", "run"):
            meta = json.loads((tmp_path / command / "metadata.json").read_text())
            assert meta["config"]["tasks"] == ["entropy_scan"]
            assert set(meta["entropy_scan"]) == {"window_sites", "error_rows",
                                                 "sweep_seconds"}


class TestCrosscheckTask:
    def test_raw_crosscheck(self, tmp_path):
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["crosscheck"],
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        bundle, code = run(config)
        assert code == 0
        report = bundle.reports["crosscheck"]
        assert report["blocks_vs_quadrature"] <= 1e-7
        assert report["regularized_modes"] == []

    def test_frame_cond_and_a_gap_go_to_metadata_only(self, tmp_path):
        out = tmp_path / "out"
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["crosscheck"],
                output={"directory": str(out), "formats": ["json"]},
            )
        )
        assert run(config)[1] == 0
        trace = json.loads((out / "metadata.json").read_text())["crosscheck"]
        assert set(trace) == {"frame_cond", "a_gap"}
        assert all(isinstance(v, float) and np.isfinite(v) for v in trace.values())
        assert trace["frame_cond"] >= 1.0 and trace["a_gap"] > 0.0
        report = json.loads((out / "residuals.json").read_text())["reports"]["crosscheck"]
        assert set(report) == {
            "generator_norm", "spectral_vs_blocks", "spectral_vs_quadrature",
            "blocks_vs_quadrature", "split_vs_spectral", "kernel_vs_blocks",
            "quad_error_bound", "quad_evals", "regularized_modes",
        }

    def test_clipped_crosscheck_on_degenerate_half(self, tmp_path):
        config = parse_config(
            minimal_config(
                tasks=["crosscheck"],
                tolerances={"clip": 1e-6},
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        bundle, code = run(config)
        assert code == 0
        assert bundle.reports["crosscheck"]["regularized_modes"]
        assert any("purified" in w for w in bundle.warnings)

    def test_clipped_crosscheck_compares_the_written_block(self, tmp_path):
        # under a clip the routes meet on the L_block that kernels.json holds,
        # not on a block re-derived from the purified state
        out = tmp_path / "out"
        config = parse_config(
            minimal_config(
                model={"n_sites": 64, "mass": 0.3},
                tasks=["kernels", "crosscheck"],
                tolerances={"clip": 1e-4},
                output={"directory": str(out), "formats": ["json"]},
            )
        )
        assert run(config)[1] == 0
        block = json.loads((out / "kernels.json").read_text())["matrices"]["L_block"]
        norm = np.linalg.norm(block["data_row_major"])
        report = json.loads((out / "residuals.json").read_text())["reports"]["crosscheck"]
        assert report["generator_norm"] == pytest.approx(norm, rel=1e-15, abs=0.0)

    def test_singular_resolvent_exits_3(self, tmp_path, monkeypatch):
        # a failed Cholesky pivot of the quadrature is a NumericalError, not
        # a numpy LinAlgError escaping the exit-code contract
        from modham import subspace

        def indefinite_dptsv(d, e, b, **kwargs):
            return d, e, b, 1

        monkeypatch.setattr(subspace, "dptsv", indefinite_dptsv)
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["crosscheck"],
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        _, code = run(config)
        assert code == 3
        error = json.loads((tmp_path / "out" / "error.json").read_text())["error"]
        assert error["type"] == "NumericalError" and "Cholesky pivot 1" in error["message"]


class TestCliFlags:
    def test_lenient_flag(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(
            bogus=1,
            region={"interval": {"start": 3, "length": 2}},
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )))
        assert cli_main(["run", str(path)]) == 4
        assert cli_main(["run", str(path), "--lenient"]) == 0

    def test_stdin_config(self, tmp_path, monkeypatch, capsys):
        import io

        cfg = minimal_config(
            region={"interval": {"start": 3, "length": 2}},
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cfg)))
        assert cli_main(["check", "-"]) == 0
        # stdin text is JSON whatever it holds, never a file path
        for text, message in [("[1, 2]", "expected an object, got list"),
                              ("null", "expected an object, got NoneType"),
                              ('"x"', "expected an object, got str"),
                              ("", "invalid JSON: Expecting value: line 1 column 1")]:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert cli_main(["check", "-"]) == 4
            assert f"error: SchemaError: {message}" in capsys.readouterr().err

    def test_format_flag_restricts_tables(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(
            tasks=["entropy_scan"],
            scan={"lengths": [2, 3]},
            output={"directory": str(tmp_path / "out"), "formats": ["csv", "json"]},
        )))
        assert cli_main(["scan", str(path), "--format", "csv"]) == 0
        assert (tmp_path / "out" / "entropy_scan.csv").exists()
        assert not (tmp_path / "out" / "entropy_scan.json").exists()

    def test_empty_output_dir_flag_is_a_schema_error(self, tmp_path, capsys, monkeypatch):
        # the flag passes the schema's check of output.directory: an empty
        # directory would write into the working directory
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(
            region={"interval": {"start": 3, "length": 2}})))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli_main(["run", str(path), "--output-dir", ""]) == 4
        assert capsys.readouterr().err == (
            "error: SchemaError: output.directory: expected a non-empty string\n"
        )
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flags, in_file",
        [
            ("run", ("--clip", "1e-4"), {"tolerances": {"clip": 1e-4}}),
            ("scan", (), {"tasks": ["entropy_scan"]}),
            ("run", ("--output-dir", "elsewhere"), {"output": {"directory": "elsewhere"}}),
            ("run", ("--format", "csv"), {"output": {"formats": ["csv"]}}),
        ],
        ids=["clip", "scan-tasks", "output-dir", "format"],
    )
    def test_override_equals_the_file_value(self, tmp_path, command, flags, in_file):
        from modham.cli import _build_parser, _load_config

        base = minimal_config(tolerances={}, scan={"lengths": [2, 4]},
                              output={"directory": "out", "formats": ["json"]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base))
        args = _build_parser().parse_args([command, str(path), *flags])
        written = {**base}
        for key, value in in_file.items():
            written[key] = {**base[key], **value} if isinstance(value, dict) else value
        assert _load_config(args) == parse_config(written)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "overrides, flags",
    [
        ({"tolerances": {"clip": NAN}}, ()),
        ({"tolerances": {"clip": INF}}, ()),
        ({"model": {"n_sites": 8, "mass": NAN}}, ()),
        ({"tolerances": {"route_tol": INF}}, ()),
        ({}, ("--clip", "0")),
        ({}, ("--clip", "-1")),
        ({}, ("--clip", "nan")),
        ({}, ("--clip", "inf")),
    ],
    ids=["clip-nan", "clip-inf", "mass-nan", "route_tol-inf",
         "flag-0", "flag-negative", "flag-nan", "flag-inf"],
)
def test_bad_numbers_are_schema_errors(tmp_path, capsys, overrides, flags):
    # json reads NaN and Infinity; a file value and the --clip flag pass the
    # same validation and exit 4 before anything runs
    cfg = minimal_config(
        region={"interval": {"start": 3, "length": 2}},
        tasks=["kernels", "flow", "kms", "crosscheck"],
        output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        **overrides,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    if not flags:
        with pytest.raises(SchemaError):
            parse_config(path)
    assert cli_main(["run", str(path), *flags]) == 4
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "tolerances, flags",
    [
        ({"clip": 1e-10}, ()),
        ({"clip": 1e-11}, ()),
        ({"clip": 1e-6, "sing_tol": 1e-6}, ()),
        ({}, ("--clip", "1e-10")),
        ({"sing_tol": 1e-5}, ("--clip", "1e-6")),
    ],
    ids=["clip-at-default", "clip-below-default", "clip-at-sing_tol",
         "flag-at-default", "flag-below-sing_tol"],
)
def test_clip_at_or_below_sing_tol_is_a_schema_error(tmp_path, capsys, tolerances, flags):
    # a state regularized to a gap <= sing_tol has no generator: the config
    # key and the --clip flag are refused before anything runs
    cfg = minimal_config(tolerances=tolerances,
                         output={"directory": str(tmp_path / "out"), "formats": ["json"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    clip = float(flags[1]) if flags else tolerances["clip"]
    sing_tol = tolerances.get("sing_tol", 1e-10)
    message = f"tolerances.clip: must be > sing_tol = {sing_tol!r}, got {clip!r}"
    if not flags:
        with pytest.raises(SchemaError) as info:
            parse_config(path)
        assert str(info.value) == message and info.value.path == "tolerances.clip"
    assert cli_main(["run", str(path), *flags]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_clip_above_sing_tol_is_accepted():
    config = parse_config(minimal_config(tolerances={"clip": 2e-10}))
    assert (config.tolerances.clip, config.tolerances.sing_tol) == (2e-10, 1e-10)


def test_crosscheck_runs_at_a_clip_between_sing_tol_and_1e_9(tmp_path):
    # the regularized modes sit at gap 5e-10: the split reads the kernels'
    # region block and needs no threshold of its own
    out = tmp_path / "out"
    cfg = minimal_config(model={"n_sites": 16, "mass": 0.5}, tasks=["kernels", "crosscheck"],
                         tolerances={"quad_tol": 1e-8},
                         output={"directory": str(out), "formats": ["json"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--clip", "5e-10"]) == 0
    report = json.loads((out / "residuals.json").read_text())["reports"]["crosscheck"]
    assert report["regularized_modes"] == [0, 1, 2, 3, 4]
    assert max(report[key] for key in ("spectral_vs_blocks", "spectral_vs_quadrature",
                                       "blocks_vs_quadrature", "split_vs_spectral",
                                       "kernel_vs_blocks")) <= 1e-7


ALL_TASKS = ["kernels", "flow", "kms", "crosscheck"]
# route (a) evaluates ln Delta alone: no Tomita operator or expm gate of
# modular_data_full; route (c) runs one quadrature
CROSSCHECK_ROUTES = {"_spectral_lndelta": 1, "_modular_data": 0, "_tomita_operator": 0,
                     "_resolvent_quadrature": 1}


class TestSharedPipeline:
    """One run builds each region object once and shares it across tasks."""

    @pytest.mark.parametrize(
        "region, tolerances, expected",
        [
            (
                {"interval": {"start": 30, "length": 3}},
                {},
                # the split reads the complement through the region's modes
                {"restrict_correlators": 1, "product_spectrum": 1, "mn_kernels": 1,
                 "build_flow": 1, "regularize_correlators": 0, "frames": 1,
                 **CROSSCHECK_ROUTES},
            ),
            (
                {"half": {}},
                {"clip": 1e-4},
                # spectra: raw and regularized; the kernels, flow and
                # crosscheck tasks share the regularized kernels
                {"restrict_correlators": 1, "product_spectrum": 2, "mn_kernels": 1,
                 "build_flow": 1, "regularize_correlators": 1, "frames": 1,
                 **CROSSCHECK_ROUTES},
            ),
        ],
        ids=["raw-interval", "clipped-half"],
    )
    def test_call_counts_per_run(self, tmp_path, monkeypatch, region, tolerances,
                                 expected):
        frames = counted_frames(monkeypatch)
        counts = count_calls(
            monkeypatch,
            ["restrict_correlators", "product_spectrum", "mn_kernels", "build_flow",
             "regularize_correlators", *CROSSCHECK_ROUTES],
        )
        config = parse_config(
            minimal_config(
                model={"n_sites": 64, "mass": 0.3},
                region=region,
                tasks=ALL_TASKS,
                tolerances=tolerances,
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        _, code = run(config)
        assert code == 0
        assert {**counts, "frames": len(frames)} == expected

    @pytest.mark.parametrize(
        "region, tolerances",
        [({"interval": {"start": 3, "length": 2}}, {}), ({"half": {}}, {"clip": 1e-4})],
        ids=["raw-interval", "clipped-half"],
    )
    def test_task_output_does_not_depend_on_other_tasks(self, tmp_path, region,
                                                        tolerances):
        def outputs(tasks):
            out = tmp_path / "-".join(tasks)
            config = parse_config(
                minimal_config(
                    region=region,
                    tasks=list(tasks),
                    tolerances=tolerances,
                    output={"directory": str(out), "formats": ["json"]},
                )
            )
            assert run(config)[1] == 0
            kernels = out / "kernels.json"
            matrices = json.loads(kernels.read_text())["matrices"] if kernels.exists() else {}
            return matrices, json.loads((out / "residuals.json").read_text())["reports"]

        alone = {task: outputs([task]) for task in ALL_TASKS}
        for order in (ALL_TASKS, ALL_TASKS[::-1]):
            matrices, reports = outputs(order)
            for task, (task_matrices, task_reports) in alone.items():
                assert reports[task] == task_reports[task]
                assert {name: matrices[name] for name in task_matrices} == task_matrices
        assert set(matrices) == {"X_R", "P_R", "M", "N", "L_block", "flow_generator"}
        arrays = {
            name: np.array(m["data_row_major"]).reshape(m["rows"], m["cols"])
            for name, m in matrices.items()
        }
        # one state: the written kernels and flow are the generator of it
        assert np.array_equal(arrays["L_block"], -arrays["flow_generator"])
        # under a clip that state is the regularized one: spec(X_R P_R),
        # read through the Cholesky similarity L^T X_R L, keeps the gap
        clip = tolerances.get("clip", 0.0)
        chol = np.linalg.cholesky(arrays["P_R"])
        c_sq = np.linalg.eigvalsh(chol.T @ arrays["X_R"] @ chol)
        assert c_sq.min() >= (0.5 + clip) ** 2 * (1.0 - 1e-12)

    def test_unbuilt_shared_flow_fails_kms_entry_and_flow_task(self, tmp_path):
        # kms records the construction error of the one flow; the flow task
        # then raises that same error and the run exits 3
        config = parse_config(
            minimal_config(
                tasks=["kms", "flow"],
                tolerances={"clip": 1e-9},
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        bundle, code = run(config)
        assert code == 3
        kms = bundle.reports["kms"]
        assert kms["method"] == "none" and kms["kms_residuals"] == []
        error = json.loads((tmp_path / "out" / "error.json").read_text())["error"]
        assert kms["errors"] == [f"flow construction: {error['type']}: {error['message']}"]

    def test_flow_task_uses_the_kms_branch_guard(self, tmp_path):
        # the shared flow is built with the guard min(1e-8, clip / 2): at
        # clip 1e-9 the 8-site half passes the gap guard and fails the
        # KMS check at t = 0 instead of BranchCutProximity
        config = parse_config(
            minimal_config(
                tasks=["flow"],
                tolerances={"clip": 1e-9},
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        assert run(config)[1] == 3
        error = json.loads((tmp_path / "out" / "error.json").read_text())["error"]
        assert error["type"] == "NumericalError"


class TestRouteAgreementPipeline:
    """route_agreement runs the region pipeline of a raw run."""

    def test_route_agreement_reports_the_run_crosscheck(self, tmp_path):
        from modham import build_harmonic_chain, route_agreement, vacuum_state

        out = tmp_path / "out"
        config = parse_config(
            minimal_config(
                model={"n_sites": 64, "mass": 0.3},
                region={"interval": {"start": 30, "length": 3}},
                tasks=["crosscheck"],
                output={"directory": str(out), "formats": ["json"]},
            )
        )
        assert run(config)[1] == 0
        report = json.loads((out / "residuals.json").read_text())["reports"]["crosscheck"]
        state = vacuum_state(build_harmonic_chain(64, 0.3))
        agreement = route_agreement(state, Region.interval(30, 3))
        assert report.pop("generator_norm") == agreement.norm
        assert report.pop("regularized_modes") == []
        assert report == {name: getattr(agreement, name) for name in report}

    @pytest.mark.parametrize(
        "n_sites, region, clip",
        [(64, {"half": {}}, 1e-4), (32, {"interval": {"start": 8, "length": 8}}, 1e-3)],
        ids=["half-64", "interval-32"],
    )
    def test_clipped_run_reports_route_agreement_of_its_purification(
            self, tmp_path, n_sites, region, clip):
        # the purification restricts back to the regularized restriction bit
        # for bit, so the run and the library certify one state
        from modham import (
            build_harmonic_chain, regularized_instance, route_agreement, vacuum_state,
        )

        out = tmp_path / "out"
        config = parse_config(
            minimal_config(
                model={"n_sites": n_sites, "mass": 0.3},
                region=region,
                tasks=["crosscheck"],
                tolerances={"clip": clip},
                output={"directory": str(out), "formats": ["json"]},
            )
        )
        assert run(config)[1] == 0
        report = json.loads((out / "residuals.json").read_text())["reports"]["crosscheck"]
        state = vacuum_state(build_harmonic_chain(n_sites, 0.3))
        pure, embedded, clipped = regularized_instance(state, resolve_region(config), clip)
        agreement = route_agreement(pure, embedded)
        assert report.pop("generator_norm") == agreement.norm
        assert report.pop("regularized_modes") == list(clipped)
        assert report == {name: getattr(agreement, name) for name in report}

    def test_empty_region_is_not_standard_on_every_route(self):
        from modham import (
            NotStandard, build_harmonic_chain, route_agreement, run_kms_suite, vacuum_state,
        )

        state = vacuum_state(build_harmonic_chain(8, 1.0))
        for check in (route_agreement, run_kms_suite):
            with pytest.raises(NotStandard):
                check(state, Region([]))

    def test_call_counts(self, monkeypatch, chain8, center_region):
        from modham import route_agreement

        _, state = chain8
        frames = counted_frames(monkeypatch)
        counts = count_calls(monkeypatch, ["restrict_correlators", "mn_kernels"])
        route_agreement(state, center_region)
        assert {**counts, "frames": len(frames)} == {
            "restrict_correlators": 1, "mn_kernels": 1, "frames": 1}
