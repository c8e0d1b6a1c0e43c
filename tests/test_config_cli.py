import json
from pathlib import Path

import pytest

from modham import SchemaError, parse_config
from modham.cli import main as cli_main
from modham.config import config_to_dict, resolve_region
from modham.regions import Region
from modham.runner import format_float, run, to_json_text


def minimal_config(**overrides):
    cfg = {
        "model": {"n_sites": 8, "mass": 1.0, "coupling": 1.0, "boundary": "dirichlet"},
        "region": {"half": {}},
        "tasks": ["kernels"],
    }
    cfg.update(overrides)
    return cfg


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

    def test_one_vacuum_and_one_standardness_check_per_run(self, tmp_path, monkeypatch):
        import modham.runner as runner

        calls = {"vacuum_state": 0, "standardness_check": 0}

        def counted(name):
            original = getattr(runner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(runner, name, counted(name))
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
        assert calls == {"vacuum_state": 1, "standardness_check": 1}

    def test_one_standardness_check_per_run_in_every_namespace(
        self, tmp_path, monkeypatch
    ):
        import sys

        from modham import subspace

        original = subspace.standardness_check
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "modham" or name.startswith("modham."):
                if getattr(module, "standardness_check", None) is original:
                    monkeypatch.setattr(module, "standardness_check", counted)
        config = parse_config(
            minimal_config(
                region={"interval": {"start": 3, "length": 2}},
                tasks=["kernels", "flow", "kms", "crosscheck"],
                output={"directory": str(tmp_path / "out"), "formats": ["json"]},
            )
        )
        bundle, code = run(config)
        assert code == 0 and bundle.reports["kms"]["method"] != "none"
        assert len(calls) == 1

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

    def test_scan_command(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path,
            tasks=["entropy_scan"],
            scan={"lengths": [2, 4]},
            output={"directory": str(tmp_path / "out"), "formats": ["csv"]},
        )
        assert cli_main(["scan", path]) == 0
        table = (tmp_path / "out" / "entropy_scan.csv").read_text()
        assert table.startswith("length,entropy,c_min,c_max,error")

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

    def test_stdin_config(self, tmp_path, monkeypatch):
        import io

        cfg = minimal_config(
            region={"interval": {"start": 3, "length": 2}},
            output={"directory": str(tmp_path / "out"), "formats": ["json"]},
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cfg)))
        assert cli_main(["check", "-"]) == 0

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
