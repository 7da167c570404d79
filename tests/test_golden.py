"""Golden SHA-256 digests of every CSV the experiment subcommands write.

Each subcommand runs at a tiny configuration (at most 1024 steps and 600
paths), on raw fBm and on an OU drift with constant diffusion, in two
layouts: serial with the model's chunk size, and two workers with 7-pair
chunks for every model, pinned through the `pin_chunk` fixture; a zero-drift
7-pair chunk then runs as FFT groups of 4 and 3 pairs.  Every layout must
write the same bytes, so one digest table serves both.

A change that moves an output byte on purpose re-pins the digests and
says why.  A numpy release that draws different normals fails here too;
that is the point of pinning.
"""

import hashlib

import pytest

from fbmpassage.cli import main

BASE = ["--seed", "1729", "--horizon", "20", "--threshold", "1", "--samples", "600", "--lambda-list", "1,2,3"]

CASES = {
    "simulate": ["simulate", "--steps", "1024", "--hurst-list", "0.5,0.55,0.6", "--estimator", "both"],
    "bridge-compare": ["bridge-compare", "--steps", "512", "--hurst-list", "0.6", "--estimator", "both"],
    "rate": ["rate", "--steps", "1024", "--hurst-list", "0.5,0.55,0.6,0.7", "--estimator", "simple"],
    "density": ["density", "--steps", "1024", "--hurst-list", "0.5,0.6", "--hist-bins", "20"],
    "conjecture": ["conjecture", "--steps", "1024", "--hurst-list", "0.5,0.6", "--r-list", "5,10,20"],
}

MODELS = {
    "pure": [],
    "ou": ["--drift", "ou:1", "--diffusion", "const:2"],
}

# layout -> (flags, pairs per chunk for every model, or None for the model's default)
LAYOUTS = {
    "serial": (["--workers", "1"], None),
    "pool-chunk7": (["--workers", "2"], 7),
}

# conjecture simulates raw fBm from zero whatever the model flags say, so
# both models share its digest
_CONJECTURE = {"conjecture.csv": "1ac447f13df363a36597a7f9cf95936405177e9081fb2c911b074271c842bca8"}

GOLDEN = {
    ("pure", "simulate"): {
        "laplace.csv": "2deaf78188e474b0373441c3a614577b10ef30ee2f8509514ab6e5c57de26328",
    },
    ("pure", "bridge-compare"): {
        "bridge_compare.csv": "7ccf2796b240dfa46d4a1bf654eff5301ed659557967aa43e336772dfcd340fe",
    },
    ("pure", "rate"): {
        "fig1_data.csv": "5f66b6af5661aab0d9647e76f051a395b019ad2016884ad5c62fe281c99e60dc",
        "rate.csv": "bc97a1bef832ac8a010d953fb8ccf2805dc8e254d6b3953f8e2fdc2903c6c269",
    },
    ("pure", "density"): {
        "density_H0.5.csv": "6fc218f43b06eb96712ecb11517ec3d4e883582565a2c76c731bb6a3da508ad1",
        "density_H0.6.csv": "fc26d627e47329b0172e2086323b9c9d0d182fe73c43a18af3a3761b14b6b23d",
    },
    ("pure", "conjecture"): _CONJECTURE,
    ("ou", "simulate"): {
        "laplace.csv": "45b4f9364a83cfb029812a58027d0f2d765a3058dcc8eaeb78ecc33d8cc887da",
    },
    ("ou", "bridge-compare"): {
        "bridge_compare.csv": "735523d9a6f1f90c7db563b417ef8ec8d298cfa5f8c92cacf39e37ee389e221b",
    },
    ("ou", "rate"): {
        "fig1_data.csv": "a482cc6ada7b115339c69dd8910b79a58e92c9667399e16ab6f9597ddca967c3",
        "rate.csv": "4da10cbb05e668f6a2c10bf63b7e3b2019b62fa1d09020bfbb92ec4acdc77bfd",
    },
    ("ou", "density"): {
        "density_H0.5.csv": "17ef84ce506348de1685022931f7f73c5bd80634167a10eb2f6ccab8110eeda1",
        "density_H0.6.csv": "2e20f82a384f00ea0025a430930b08711bc9fb64563cb77351b040f55827eee6",
    },
    ("ou", "conjecture"): _CONJECTURE,
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("model", MODELS)
def test_csv_digests(pin_chunk, tmp_path, model, case, layout):
    flags, chunk_pairs = LAYOUTS[layout]
    if chunk_pairs is not None:
        pin_chunk(chunk_pairs)
    argv = CASES[case] + BASE + MODELS[model] + flags + ["--out", str(tmp_path)]
    assert main(argv) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == GOLDEN[model, case]
