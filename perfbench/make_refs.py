"""Regenerate ``refs.json``: the stored reference for every pooled input.

    python3 perfbench/make_refs.py

kappa is the top singular value of Pi W Pi, with the superoperator W built
here from the Kraus operators by a plain numpy oracle (a product of stage
superoperators for lazy channels), so the timed runs never pay for it.  The
reduction channels are built with the program's own reduction code, since
they are its output, and their kappa_f and thresholds are recorded as the
program reports them.  Expected decisions and acceptances follow from each
instance's construction.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"


def superoperator(kraus, weights) -> np.ndarray:
    return sum(w * np.kron(u, u.conj()) for w, u in zip(weights, kraus))


def dense_kappa(stages) -> float:
    """stages: [(kraus, weights), ...] applied first to last."""
    w = None
    for kraus, weights in stages:
        s = superoperator(kraus, weights)
        w = s if w is None else s @ w
    n = int(round(np.sqrt(w.shape[0])))
    phi = np.eye(n, dtype=complex).reshape(-1) / np.sqrt(n)
    pi = np.eye(w.shape[0]) - np.outer(phi, phi.conj())
    return float(np.linalg.svd(pi @ w @ pi, compute_uv=False)[0])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from qexpander import build_reduction
    from qexpander.fileio import load_reduction_spec

    refs: dict = {}

    red = refs["reduction_dense"] = {}
    for key in wl.REDUCTION_SPECS:
        spec = load_reduction_spec(ROOT / "corpus" / "reductions" / f"{key}.json")
        channel = build_reduction(spec)
        red[key] = {
            "case": "NO" if key.startswith("no") else "YES",
            "kappa": dense_kappa([(s.kraus, s.weights) for s in channel.stages]),
            "kappa_f": spec.kappa_f,
            "alpha": spec.alpha,
            "beta": spec.beta,
        }

    mfg = refs["matrix_free_gap"] = {}
    for k in wl.MFG_SEEDS:
        kraus = wl.mfg_flat_kraus(k)
        weights = np.full(len(kraus), 1.0 / len(kraus))
        mfg[f"flat-{k}"] = {"kappa": dense_kappa([(kraus, weights)])}
        mfg[f"lazy-{k}"] = {"kappa": dense_kappa([(kraus, weights)] * 2)}

    ver = refs["verify_protocol"] = {}
    for case in ("no", "yes"):
        kraus = wl.verify_kraus(case)
        weights = np.full(len(kraus), 1.0 / len(kraus))
        kappa = dense_kappa([(kraus, weights)])
        # Arthur accepts exactly when the honest witness reaches alpha^2.
        ver[case] = {"kappa": kappa, "accepted": bool(kappa**2 > wl.VERIFY_ALPHA**2)}

    therm = refs["thermalize"] = {}
    r0, r1 = wl.THERM_R0, wl.THERM_R1
    for k in range(wl.THERM_MODELS):
        us = wl.therm_unitaries(k)
        d = len(us)
        kraus = us + [u.conj().T for u in us]
        weights = [r0 / ((r0 + r1) * d)] * d + [r1 / ((r0 + r1) * d)] * d
        therm[f"model-{k}"] = {"kappa": dense_kappa([(kraus, weights)])}

    REFS.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
