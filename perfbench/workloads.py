"""The benchmark's workloads: inputs drawn from a seed, operations, checks.

A workload's operations form one round; a run repeats whole rounds, so the
share of failed operations is the same in every run.  Round 0 is checked
against the references in :mod:`checks`; every later round must reproduce
round 0 (byte for byte where modham writes files).  Each workload also runs
negative controls: deliberately corrupted outputs that its checks must
reject.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import modham
import modham.cli

DATA_FILES = ("kernels.json", "residuals.json", "entropy_scan.json")


@dataclass
class Op:
    label: str
    fn: Callable[[Path], object]  # receives the round's output directory


def _write_config(path: Path, config: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return path


class CliExit(Exception):
    """``modham run`` returned a non-zero exit code; ``kind`` names the error."""

    def __init__(self, code: int, kind: str):
        super().__init__(f"modham run exited {code} ({kind})")
        self.kind = kind


def _cli_op(config_path: Path, label: str, extra=()):
    """``modham run`` in-process; returns the output directory."""

    def run(round_dir: Path):
        out_dir = round_dir / label
        with contextlib.redirect_stdout(io.StringIO()):
            code = modham.cli.main(["run", str(config_path), "--output-dir", str(out_dir), *extra])
        if code != 0:
            error = out_dir / "error.json"
            kind = json.loads(error.read_text())["error"]["type"] if error.exists() else "residual"
            raise CliExit(code, kind)
        return out_dir

    return run


def output_bytes(out_dir: Path) -> int:
    """Bytes of the deterministic data files a ``modham run`` wrote."""
    return sum((out_dir / name).stat().st_size for name in DATA_FILES if (out_dir / name).exists())


def _same_files(first: Path, later: Path) -> bool:
    return all(
        (first / name).read_bytes() == (later / name).read_bytes()
        for name in DATA_FILES
        if (first / name).exists()
    )


def _matrices(out_dir: Path) -> dict:
    """The matrices of a ``kernels.json``, as arrays."""
    payload = json.loads((out_dir / "kernels.json").read_text())["matrices"]
    return {
        name: np.array(m["data_row_major"]).reshape(m["rows"], m["cols"]) for name, m in payload.items()
    }


def _within(value, gate: float) -> bool:
    """A residual passes its gate only as a real number (not "nan", not NaN) at most ``gate``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value <= gate


def _perturb(generator: np.ndarray, rng) -> np.ndarray:
    """Add a random matrix with 1% of the generator's norm."""
    noise = rng.standard_normal(generator.shape)
    return generator + 0.01 * np.linalg.norm(generator) * noise / np.linalg.norm(noise)


class Workload:
    """Base: subclasses set ``self.ops`` and implement the checks."""

    files_on_disk = True
    control_target = ""  # label of the operation whose output the controls corrupt

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def check(self, op: Op, out) -> list:
        """Names of the failed checks of one round-0 output."""
        raise NotImplementedError

    def same(self, first, later) -> bool:
        return _same_files(first, later)

    def controls(self, target) -> dict:
        """Negative controls on the round-0 output of ``control_target``:
        name -> True when the check rejected the corruption."""
        raise NotImplementedError

    def discard(self, out) -> None:
        if self.files_on_disk and out is not None:
            shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------------------


class Certify(Workload):
    """``modham run`` with kernels, flow, kms and crosscheck tasks at m = 0.3."""

    MASS = 0.3
    CLIP = 1e-4
    control_target = "n64_centered3"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ops = []
        self.clip_of = {}
        for n in (64, 128):
            regions = {"centered3": {"interval": {"start": (n - 3) // 2, "length": 3}}}
            if n == 64:
                regions["two_interval"] = {"sites": self._two_interval(n)}
                regions["half"] = {"half": {}}
            for name, region in regions.items():
                label = f"n{n}_{name}"
                config = {
                    "model": {"n_sites": n, "mass": self.MASS, "coupling": 1.0, "boundary": "dirichlet"},
                    "region": region,
                    "tasks": ["kernels", "flow", "kms", "crosscheck"],
                    "output": {"directory": "unused", "formats": ["json"]},
                }
                path = _write_config(workdir / "configs" / f"{label}.json", config)
                extra = ("--clip", repr(self.CLIP)) if name == "half" else ()
                self.clip_of[label] = self.CLIP if extra else None
                self.ops.append(Op(label, _cli_op(path, label, extra)))

    def _two_interval(self, n: int) -> list:
        """Two 2-site intervals 2 sites apart, shifted by up to 4 sites, maybe mirrored.

        The gap is fixed because it sets the quadrature's cost: at n = 128 a
        1-site gap took 705 integrand evaluations, gaps of 2 or 3 took 195.
        """
        shift = int(self.rng.integers(-4, 5))
        start = n // 2 - 3 + shift
        sites = [start, start + 1, start + 4, start + 5]
        if self.rng.integers(2):
            sites = sorted(n - 1 - s for s in sites)
        return sites

    def check(self, op, out):
        failed = []
        reports = json.loads((out / "residuals.json").read_text())["reports"]
        gate = checks.ROUTE_GATE
        kms = reports["kms"]
        # method "none" with max_residual 0.0 means no flow was built: not a pass
        if kms["method"] == "none" or kms["errors"] or not kms["kms_residuals"]:
            failed.append("kms_suite_ran")
        if not all(_within(v, gate) for v in kms["kms_residuals"]) or not _within(kms["max_residual"], gate):
            failed.append("kms_suite_gate")
        if not _within(reports["flow"]["generator_check_residual"], gate):
            failed.append("flow_check_gate")
        cross = reports["crosscheck"]
        # kernel_vs_blocks compares the block route with itself: not evidence
        for key in ("spectral_vs_quadrature", "spectral_vs_blocks", "blocks_vs_quadrature"):
            if not _within(cross[key], gate):
                failed.append(f"crosscheck_{key}")
        failed += self.generator_checks(op.label, _matrices(out))
        return failed

    def generator_checks(self, label, mats):
        x_r, p_r = mats["X_R"], mats["P_R"]
        gate = checks.ROUTE_GATE
        clip = self.clip_of[label]
        failed = []
        if clip is None:
            reference = checks.mp_flow_generator(x_r, p_r)
            p_flow = p_r
            if checks.rel(-mats["L_block"], reference) > gate:
                failed.append("L_block_vs_mpmath")
        else:
            # the flow acts on the regularized state; the kernels task clips the log
            p_flow = checks.regularized_momentum(x_r, p_r, clip)
            reference = checks.logm_flow_generator(x_r, p_flow)
            if checks.rel(mats["L_block"], checks.clipped_block_generator(x_r, p_r, clip)) > gate:
                failed.append("L_block_vs_clipped_blocks")
        if checks.rel(mats["flow_generator"], reference) > gate:
            failed.append("flow_generator_vs_reference")
        kms, symp = checks.expm_residuals(mats["flow_generator"], x_r, p_flow)
        if kms > gate or symp > gate:
            failed.append("expm_kms")
        return failed

    def controls(self, target):
        label = self.control_target
        mats = _matrices(target)
        perturbed = dict(mats, flow_generator=_perturb(mats["flow_generator"], self.rng))
        flipped = dict(mats, flow_generator=-mats["flow_generator"])
        return {
            "generator_perturbed_1pct": bool(self.generator_checks(label, perturbed)),
            "generator_sign_flipped": bool(self.generator_checks(label, flipped)),
        }


# ---------------------------------------------------------------------------

GROUP_PAIRS = ((0.3, -0.7), (1.1, 0.4))


class RegionFlow(Workload):
    """Library calls on 256- and 512-site chains, one operation per region."""

    files_on_disk = False
    CHAINS = ((256, 1.0), (512, 0.1))
    SIZES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48, 56, 64)
    GAP_FLOOR = 1e-3  # regularize below this c - 1/2
    RAW = ((256, 1.0, 3), (256, 1.0, 4))  # fail today: see README
    MPMATH_MAX_SITES = 4
    control_target = "n512_r3"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.states = {}
        self.ops = [Op(f"vacuum_n{n}", self._vacuum_op(n, m)) for n, m in self.CHAINS]
        for n, m in self.CHAINS:
            for size in self.SIZES:
                sites = self._shape(n, size)
                self.ops.append(Op(f"n{n}_r{size}", self._region_op(n, sites, True)))
        for n, m, size in self.RAW:
            sites = list(range((n - size) // 2, (n - size) // 2 + size))
            self.ops.append(Op(f"raw_n{n}_m{m:g}_r{size}", self._region_op(n, sites, False)))

    def _shape(self, n: int, size: int) -> list:
        """``size`` sites in 1-3 intervals with 1-8 site gaps, placed by the seed."""
        parts = int(self.rng.integers(1, min(3, size) + 1))
        cuts = sorted(self.rng.choice(np.arange(1, size), parts - 1, replace=False)) if parts > 1 else []
        lengths = np.diff([0, *cuts, size])
        gaps = self.rng.integers(1, 9, parts - 1)
        span = int(lengths.sum() + gaps.sum())
        start = int(self.rng.integers(0, n - span + 1))
        sites, pos = [], start
        for k, length in enumerate(lengths):
            sites += range(pos, pos + int(length))
            pos += int(length) + (int(gaps[k]) if k < parts - 1 else 0)
        return sites

    def _vacuum_op(self, n, mass):
        def run(_round_dir):
            self.states[n] = modham.vacuum_state(modham.build_harmonic_chain(n, mass))
            return None

        return run

    def _region_op(self, n, sites, regularize):
        region = modham.Region(sites)

        def run(_round_dir):
            state = self.states[n]
            rc = modham.restrict_correlators(state, region)
            regularized = False
            if regularize and modham.symplectic_spectrum(rc)[0] - 0.5 < self.GAP_FLOOR:
                rc, _ = modham.regularize_correlators(rc, self.GAP_FLOOR)
                regularized = True
            kernels = modham.mn_kernels(rc)
            entropy = modham.entanglement_entropy(kernels)
            flow = modham.build_flow(kernels, rc)
            return {
                "X_R": rc.X_R,
                "P_R": rc.P_R,
                "L_block": kernels.L_block,
                "generator": flow.generator,
                "entropy": entropy,
                "kms": [modham.kms_residual(flow, t) for t in checks.T_GRID],
                "symplectic": [modham.symplectic_invariance_residual(flow, t) for t in checks.T_GRID],
                "group": [modham.group_residual(flow, s, t) for s, t in GROUP_PAIRS],
                "regularized": regularized,
            }

        return run

    def check(self, op, out):
        if out is None:  # vacuum
            return []
        return self.output_checks(out)

    def output_checks(self, out):
        gate = checks.ROUTE_GATE
        failed = []
        residuals = out["kms"] + out["symplectic"] + out["group"]
        if not all(_within(v, gate) for v in residuals):
            failed.append("library_residual_gate")
        kms, symp = checks.expm_residuals(out["generator"], out["X_R"], out["P_R"])
        if kms > gate or symp > gate:
            failed.append("expm_kms")
        reference = checks.entropy_from_eigvals(out["X_R"], out["P_R"])
        if abs(out["entropy"] - reference) > checks.ENTROPY_RTOL * max(abs(reference), 1.0):
            failed.append("entropy_vs_eigvals")
        if out["X_R"].shape[0] <= self.MPMATH_MAX_SITES:
            mp_ref = checks.mp_flow_generator(out["X_R"], out["P_R"])
            if checks.rel(out["generator"], mp_ref) > gate or checks.rel(-out["L_block"], mp_ref) > gate:
                failed.append("generator_vs_mpmath")
        return failed

    def same(self, first, later):
        for key, value in first.items():
            ref, new = np.asarray(value, dtype=float), np.asarray(later[key], dtype=float)
            if not np.allclose(new, ref, rtol=1e-10, atol=1e-14):
                return False
        return True

    def controls(self, small):
        return {
            "generator_perturbed_1pct": bool(
                self.output_checks(dict(small, generator=_perturb(small["generator"], self.rng)))
            ),
            "generator_sign_flipped": bool(self.output_checks(dict(small, generator=-small["generator"]))),
            "entropy_shifted_1e-6": bool(self.output_checks(dict(small, entropy=small["entropy"] + 1e-6))),
        }


# ---------------------------------------------------------------------------


class EntropyScan(Workload):
    """``modham run`` with the entropy_scan task on a 1024-site chain."""

    N = 1024
    LENGTHS = tuple(range(8, 257))
    FIT_MASS = 1e-3
    control_target = "scan0"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # one fixed mass for the scaling fit, one drawn log-uniform in [1e-2, 0.3]
        self.masses = (self.FIT_MASS, float(math.exp(self.rng.uniform(math.log(1e-2), math.log(0.3)))))
        self.ops = []
        self.mass_of = {}
        for k, mass in enumerate(self.masses):
            label = f"scan{k}"
            config = {
                "model": {"n_sites": self.N, "mass": mass, "coupling": 1.0, "boundary": "dirichlet"},
                "region": {"interval": {"start": 0, "length": 1}},
                "tasks": ["entropy_scan"],
                "output": {"directory": "unused", "formats": ["json"]},
                "scan": {"lengths": list(self.LENGTHS), "start": None},
            }
            path = _write_config(workdir / "configs" / f"{label}.json", config)
            self.mass_of[label] = mass
            self.ops.append(Op(label, _cli_op(path, label)))

    def _rows(self, out):
        return json.loads((out / "entropy_scan.json").read_text())["rows"]

    def check(self, op, out):
        return self.row_checks(self.mass_of[op.label], self._rows(out))

    def row_checks(self, mass, rows):
        failed = []
        if [row.get("length") for row in rows] != list(self.LENGTHS) or any("error" in r for r in rows):
            return ["scan_rows"]
        x, p = checks.dirichlet_correlators(self.N, mass)
        for row in rows:
            length = row["length"]
            ref = checks.interval_entropy_cholesky(x, p, (self.N - length) // 2, length)
            if abs(row["entropy"] - ref) > checks.ENTROPY_RTOL * abs(ref):
                failed.append(f"entropy_l{length}")
        if mass == self.FIT_MASS:
            slope = checks.zero_mode_slope(self.LENGTHS, [r["entropy"] for r in rows], mass)
            if abs(slope - 1.0 / 3.0) > 0.1 / 3.0:
                failed.append("zero_mode_slope")
        return failed

    def controls(self, target):
        shifted = [dict(r) for r in self._rows(target)]
        shifted[len(shifted) // 2]["entropy"] += 1e-6
        return {"entropy_shifted_1e-6": bool(self.row_checks(self.mass_of[self.control_target], shifted))}


WORKLOADS = {"certify": Certify, "region_flow": RegionFlow, "entropy_scan": EntropyScan}
