"""One-off traced pass over each stage of the certification path.

    python3 perfbench/stages.py

Run from the root of a modham checkout.  For every chain size in SIZES, each
stage runs once on a centered 3-site interval of a Dirichlet chain, under the
tracer, and the table printed gives each stage's span time in milliseconds,
plus the part of ``run_kms_suite`` spent in ``standardness_check``.  These
are single samples, not medians: they locate the cost, the workloads in
run.py measure it.  n = 256 takes about a minute and a half, mostly
``route_agreement``.
"""

import sys
from pathlib import Path

from run import import_modham  # also pins the BLAS threads to one

SIZES = (32, 64, 128, 256)
MASS = 0.3

STAGES = (
    ("vacuum", "lattice.vacuum_state"),
    ("restrict", "kernels.restrict_correlators"),
    ("c_spectrum", "kernels.symplectic_spectrum"),
    ("mn_kernels", "kernels.mn_kernels"),
    ("standardness", "subspace.standardness_check"),
    ("modular_data_full", "subspace.modular_data_full"),
    ("quadrature", "subspace.lndelta_resolvent_quadrature"),
    ("build_flow", "flow.build_flow"),
    ("run_kms_suite", "flow.run_kms_suite"),
    ("route_agreement", "crosscheck.route_agreement"),
    ("entropy_scan", "runner.entropy_scan"),
)


def main() -> int:
    import_modham(Path.cwd())
    import modham
    from tracing import Tracer

    tracer = Tracer()
    print("| n | " + " | ".join(label for label, _ in STAGES) + " | kms: standardness |")
    print("|---" * (len(STAGES) + 2) + "|")
    for n in SIZES:
        config = modham.parse_config(
            {
                "model": {"n_sites": n, "mass": MASS},
                "region": {"interval": {"start": (n - 3) // 2, "length": 3}},
                "tasks": ["entropy_scan"],
                "scan": {"lengths": list(range(8, n // 4 + 1))},
            }
        )
        region = modham.Region.interval((n - 3) // 2, 3)
        tracer.install()
        first = len(tracer.spans)
        try:
            state = modham.vacuum_state(modham.build_harmonic_chain(n, MASS))
            rc = modham.restrict_correlators(state, region)
            modham.symplectic_spectrum(rc)
            kernels = modham.mn_kernels(rc)
            modham.standardness_check(state, region)
            modham.modular_data_full(state, region)
            modham.lndelta_resolvent_quadrature(state, region)
            modham.build_flow(kernels, rc)
            modham.run_kms_suite(state, region)
            modham.route_agreement(state, region)
            modham.entropy_scan(config)
        finally:
            tracer.uninstall()
        top = {}  # first top-level span of each stage
        for index in range(first, len(tracer.spans)):
            name, start, end, parent, _ = tracer.spans[index]
            if parent < first:
                top.setdefault(name, index)
        kms = top["flow.run_kms_suite"]
        in_kms = sum(
            end - start
            for name, start, end, parent, _ in tracer.spans[first:]
            if parent == kms and name == "subspace.standardness_check"
        )
        cells = []
        for _, name in STAGES:
            span = tracer.spans[top[name]]
            cells.append(f"{1000 * (span[2] - span[1]):.3g}")
        print(f"| {n} | " + " | ".join(cells) + f" | {1000 * in_kms:.3g} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
