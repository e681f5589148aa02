"""
ROC curves under increasing test noise
======================================

Sweeps the posterior-threshold detector across its full operating
range on the 7x64 parity-check design and shows how test flips
degrade the false-alarm / missed-detection tradeoff. Writes one curve
as CSV, and the curves to roc_noise_comparison.png when matplotlib is
available, into a fresh temporary directory and prints their paths.

Run with:  python3 demos/roc_noise_comparison.py
"""

import os
import tempfile

import numpy as np

from grouptrellis import (
    Bsc,
    Noiseless,
    Prior,
    default_threshold_grid,
    ebch_64_57_parity_check,
    sweep_roc,
)

matrix = ebch_64_57_parity_check()
prior = Prior(delta=0.015)
trials = 20_000
seed = 7

# One shared threshold grid so the curves are directly comparable.
grid = default_threshold_grid(prior)
noises = [Noiseless(), Bsc(0.02), Bsc(0.05), Bsc(0.1)]

curves = []
for noise in noises:
    curve = sweep_roc(matrix, prior, noise, grid, trials, seed)
    curves.append(curve)
    # Report the operating point closest to 98% detection.
    hit = next((p for p in curve.points if 1 - p.p_md >= 0.98), None)
    if hit is None:
        print(f"{curve.noise_label:<10}  never reaches 98% detection")
    else:
        print(f"{curve.noise_label:<10}  "
              f"p_fa = {hit.p_fa:.4f} +/- {hit.p_fa_halfwidth:.4f} "
              f"at detection {1 - hit.p_md:.4f}")

# Without noise the detector is one-sided: thresholding at +inf
# recovers the definite-clear rule, which never misses a defective.
noiseless = curves[0]
endpoint = noiseless.points[-1]
print()
print("noiseless endpoint: p_md =", endpoint.p_md,
      "at p_fa =", round(endpoint.p_fa, 4))

# Each curve is also a CSV artifact; the file is byte-identical across
# reruns and worker counts, so it is safe to diff in regression tests.
out_dir = tempfile.mkdtemp(prefix="roc_noise_comparison_")
csv_path = os.path.join(out_dir, "roc_ebch_eps0.05.csv")
curves[2].write_csv(csv_path)
print("wrote", csv_path)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6, 4.5))
    for curve in curves:
        fa = np.array([p.p_fa for p in curve.points])
        det = 1.0 - np.array([p.p_md for p in curve.points])
        order = np.argsort(fa)
        ax.plot(fa[order], det[order], marker=".", label=curve.noise_label)
    ax.set_xlabel("false-alarm probability")
    ax.set_ylabel("detection probability")
    ax.set_title(f"7x64 parity-check design, delta = {prior.delta}")
    ax.legend(loc="lower right")
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    png_path = os.path.join(out_dir, "roc_noise_comparison.png")
    fig.savefig(png_path, dpi=150)
    print("wrote", png_path)
