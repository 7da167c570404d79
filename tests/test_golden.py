"""Golden SHA-256 digests of every CSV the experiment subcommands write.

Each subcommand runs at a tiny configuration (at most 1024 steps and 600
paths), on raw fBm and on an OU drift with constant diffusion, in two
layouts: serial with the default chunk size, and two workers with 7-pair
chunks.  Every layout must write the same bytes, so one digest table
serves both.

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

LAYOUTS = {
    "serial": ["--workers", "1"],
    "pool-chunk7": ["--workers", "2", "--chunk-pairs", "7"],
}

# conjecture simulates raw fBm from zero whatever the model flags say, so
# both models share its digest
_CONJECTURE = {"conjecture.csv": "1ac447f13df363a36597a7f9cf95936405177e9081fb2c911b074271c842bca8"}

GOLDEN = {
    ("pure", "simulate"): {
        "laplace.csv": "ac20c5a3252b1192903333c96cb233983847b8bca0df95a99bd3421370f86bb9",
    },
    ("pure", "bridge-compare"): {
        "bridge_compare.csv": "7ccf2796b240dfa46d4a1bf654eff5301ed659557967aa43e336772dfcd340fe",
    },
    ("pure", "rate"): {
        "fig1_data.csv": "bff3531705f38c0db2c93d22a1a0db94620f0b875541fdd80a4dd9fde6ef666d",
        "rate.csv": "4035675f8c115b55281c8928e107bfece4628293cdc1c1640e9a170cdbc81adc",
    },
    ("pure", "density"): {
        "density_H0.5.csv": "6fc218f43b06eb96712ecb11517ec3d4e883582565a2c76c731bb6a3da508ad1",
        "density_H0.6.csv": "fc26d627e47329b0172e2086323b9c9d0d182fe73c43a18af3a3761b14b6b23d",
    },
    ("pure", "conjecture"): _CONJECTURE,
    ("ou", "simulate"): {
        "laplace.csv": "2e78136624f399f023031baf27a56291a25869b974fca6ee7b9953da42736ba9",
    },
    ("ou", "bridge-compare"): {
        "bridge_compare.csv": "735523d9a6f1f90c7db563b417ef8ec8d298cfa5f8c92cacf39e37ee389e221b",
    },
    ("ou", "rate"): {
        "fig1_data.csv": "e9e2035d81f5067ad130c716f265f6a5d2063d9aebe8825acb35797349e4e838",
        "rate.csv": "dd2603c7b610e097f4d11bf76cd8d382f14466268d35751081a00a2085d61b3b",
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
def test_csv_digests(tmp_path, model, case, layout):
    argv = CASES[case] + BASE + MODELS[model] + LAYOUTS[layout] + ["--out", str(tmp_path)]
    assert main(argv) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == GOLDEN[model, case]
