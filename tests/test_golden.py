"""Golden sha256 digests: the reproducibility contract pinned across library versions.

The rerun and worker-count tests only compare a build with itself.  These
digests were recorded once and must hold on every machine and every NumPy
release: a mismatch means the bits of a run changed there, which breaks the
"byte-identical" promise and must be reported, not re-recorded.  The column
digests pin the raw float64 output of the sampler (Philox words, AS241 and
the column algebra); the figure digests pin the CLI's data files for the
README's fig3 spec, and were recorded before the sampler moved from
``scipy.special.ndtri`` to the in-package AS241; the one exception is
``fig3_conditional.csv``, re-recorded when its squeezing column became the
ratio of the two excesses, and again when the conditional variance became
the regression residual v2 - c**2/v1, deliberate changes of its
``sigma_cond_minus_half``, ``squeezing_db`` and ``se_cond`` columns alone.
The bootstrap intervals are ``float.hex`` of ``bootstrap_ci`` for every
estimator, recorded with the resample-at-a-time loop and one pass per
estimator, before the blocked evaluation and the shared pass replaced them;
the 16 of ``sigma_cond`` and ``conditioning_gain`` were re-recorded with the
regression residual, and 12 of the 16 of ``sigma_plus`` and ``sigma_minus``,
each end by at most 2 ulps, when sigma_+/- became (v1 + v2 +/- 2c)/2 of the
one moment pass; the 20 others were not touched.  37 resamples leave a
partial last block at both shot counts.  Each interval is taken on a fresh
run, since ``bootstrap_ci`` memoises each run's resampled moments.
"""

import functools
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator

from qndsim.figures import (
    cmd_conditional_sweep,
    cmd_joint,
    cmd_variance_sweep,
    spec_from_mapping,
)
from qndsim import stats
from qndsim.montecarlo import RunResult, SequenceConfig, run_sequence
from qndsim.stats import bootstrap_ci

SEED = 1234567
VARIANTS = {
    "lossless": {},
    "eta0.8": {"eta": 0.8},
    "spread0.05": {"atom_fluctuation": True, "spin_rel_std": 0.05},
}

# sha256 of s1, s2, jz1, jz2, kappa_shot as little-endian float64, 64 shots
COLUMN_DIGESTS = {
    ("qnd", "y", "lossless"): "ea2092dec5ce2bf9f8133df8124da7727b175e53b6d9c96b2b51b42fadbf8ac4",
    ("qnd", "y", "eta0.8"): "d9c1d72742678a95507828b6f742e9e733f6f1857c0d7cd160e4b7bec4572a61",
    ("qnd", "y", "spread0.05"): "60e860ef7ff5f79a7ddada2a15d69a75217afc68241c58e8c70f405cd10950b2",
    ("qnd", "z", "lossless"): "82b3dba1c2b6ed1815cbec9dfdfcea4d021ad9372eea6ff0035afc40b157a87a",
    ("qnd", "z", "eta0.8"): "e33ecfd7d90dcf4c8d309a250b368d67a7c0908264b95e818a5b955613c3a7e7",
    ("qnd", "z", "spread0.05"): "3fd820fb2ed0ec24420f3e4da7984fdc80bfc3e96933a7d682dbde0339437de8",
    ("reinit", "y", "lossless"): "a0b1c38470b5f10862247e8063686a791aec9244717721eaadcf0905e367bc6e",
    ("reinit", "y", "eta0.8"): "45a85ac67549d1e9819a6f43d968b2b6e09d4396a0cb4fc19746312d847b7d07",
    ("reinit", "y", "spread0.05"): "6c088e5a50bb04e0ea838fe0d758a7bd87fb677811493e7c5a12606b54caf493",
    ("reinit", "z", "lossless"): "a2ad41ad09632f213c3d6b7426f8e53292d9beabcbb58e8f2f79acc555320490",
    ("reinit", "z", "eta0.8"): "a77faef429d905f9133f860623270306f0d99253b4a2a8875f19b90dad49c366",
    ("reinit", "z", "spread0.05"): "7df01bbdab2a5b9fa78c8be65341c63952b2df59405a063544b475f7274b904a",
}

# the README's fig3 spec at its 2600 shots
FIG3 = {
    "name": "fig3",
    "sequence": {"mode": "qnd", "kappa_nominal": 0.62, "shots": 2600, "seed": 7},
    "kappa_grid": [0.0, 0.15, 0.3, 0.45, 0.62],
}
FIG3_DIGESTS = {
    "fig3_joint_a.csv": "653d824c99e0b55abf2b35a5e7f5f4f7ebf675f7ab3d8122570a4fd8ab0a9979",
    "fig3_joint_b.csv": "243fec4d6a01117677212c13092aba10b71e5eeac37d73a38ec63a36b501fad5",
    "fig3_joint_c.csv": "c57d82a9bfca74ca1af8f80ce2a51a1b5d0f88b3c229aff86d2039187d4f1dc8",
    "fig3_joint_summary.json": "27241703d58409f7948808ad12ec3b8e491d1ef6fd2649bb2980385742f04771",
    "fig3_variance_qnd.csv": "3e5948e63be194b514061b59b0d111c499d7415e2a31949fbb222a81daf98cec",
    "fig3_variance_reinit.csv": "2d1f56a30a623f32b5b78ce0179d42f8dc8f83b38946f09854f39b84eb24bc73",
    "fig3_conditional.csv": "7080f2041c7d1e76025d7efa15ff36226c34ac8ace8f8991afe293eb7785f38f",
}


def column_digest(config: SequenceConfig) -> str:
    result = run_sequence(config)
    h = hashlib.sha256()
    for name in ("s1", "s2", "jz1", "jz2", "kappa_shot"):
        h.update(np.asarray(getattr(result, name), dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "mode, basis, variant", list(itertools.product(["qnd", "reinit"], ["y", "z"], VARIANTS))
)
def test_column_digest(mode, basis, variant):
    config = SequenceConfig(mode=mode, basis=basis, kappa_nominal=0.62, shots=64, seed=SEED,
                            **VARIANTS[variant])
    assert column_digest(config) == COLUMN_DIGESTS[mode, basis, variant]


def test_fig3_data_files(tmp_path):
    spec = spec_from_mapping({**FIG3, "outputs": str(tmp_path)})
    bundles = [cmd_joint(spec), cmd_variance_sweep(spec), cmd_conditional_sweep(spec)]
    written = sorted(Path(path).name for bundle in bundles for path in bundle.data_files)
    assert written == sorted(FIG3_DIGESTS)
    for name, digest in FIG3_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


BOOTSTRAP_VARIANTS = {
    "lossless": {},
    "lossy": {"eta": 0.8, "atom_fluctuation": True, "spin_rel_std": 0.05},
}
BOOTSTRAP_SEED = 11

# (variant, shots, resamples, estimator) -> float.hex of (lo, hi), qnd mode, kappa 0.62
BOOTSTRAP_INTERVALS = {
    ("lossless", 2600, 1000, "conditioning_gain"): ("0x1.9ddf05ae67ca7p-5", "0x1.0c7c589018432p-4"),
    ("lossless", 2600, 1000, "sigma1"): ("0x1.64847e21b00bbp-1", "0x1.793b58cb0dc54p-1"),
    ("lossless", 2600, 1000, "sigma2"): ("0x1.4eebdc4fd300fp-1", "0x1.6121e4855d42dp-1"),
    ("lossless", 2600, 1000, "sigma_cond"): ("0x1.3215636ffd75ep-1", "0x1.42cc2e6eba5b9p-1"),
    ("lossless", 2600, 1000, "sigma_minus"): ("0x1.e9323a2164f5ep-2", "0x1.021ec70419294p-1"),
    ("lossless", 2600, 1000, "sigma_plus"): ("0x1.bed87ecc38718p-1", "0x1.d782c552e4792p-1"),
    ("lossless", 2600, 37, "conditioning_gain"): ("0x1.8d878b2675fa7p-5", "0x1.13d79243cbbfep-4"),
    ("lossless", 2600, 37, "sigma1"): ("0x1.6814a71df7891p-1", "0x1.79385fda9bbccp-1"),
    ("lossless", 2600, 37, "sigma2"): ("0x1.509f3a5bad6f1p-1", "0x1.6203b677f5ab1p-1"),
    ("lossless", 2600, 37, "sigma_cond"): ("0x1.3462777d41b2dp-1", "0x1.41ee44d2babbfp-1"),
    ("lossless", 2600, 37, "sigma_minus"): ("0x1.eba9d244b37f8p-2", "0x1.0186e5c4fe018p-1"),
    ("lossless", 2600, 37, "sigma_plus"): ("0x1.bf834e9866487p-1", "0x1.d97498144e9cep-1"),
    ("lossless", 777, 1000, "conditioning_gain"): ("0x1.907aa6762c953p-5", "0x1.41ecd5d2fc49fp-4"),
    ("lossless", 777, 1000, "sigma1"): ("0x1.48f3ca8181f7cp-1", "0x1.6a83c3d2e7896p-1"),
    ("lossless", 777, 1000, "sigma2"): ("0x1.4e1cfdde69c81p-1", "0x1.6f4d8466cb62bp-1"),
    ("lossless", 777, 1000, "sigma_cond"): ("0x1.2ff94e12ee6a4p-1", "0x1.4e42816b145cdp-1"),
    ("lossless", 777, 1000, "sigma_minus"): ("0x1.cddd348b4ce42p-2", "0x1.fed89803db569p-2"),
    ("lossless", 777, 1000, "sigma_plus"): ("0x1.adeeebe70c731p-1", "0x1.dd65e6ff0270cp-1"),
    ("lossless", 777, 37, "conditioning_gain"): ("0x1.941be85273700p-5", "0x1.1e2a19912fc53p-4"),
    ("lossless", 777, 37, "sigma1"): ("0x1.4b645f9d7268cp-1", "0x1.6b3de517ade7cp-1"),
    ("lossless", 777, 37, "sigma2"): ("0x1.4a63a3aa7943dp-1", "0x1.7458c706b9e37p-1"),
    ("lossless", 777, 37, "sigma_cond"): ("0x1.2e8fba94ad021p-1", "0x1.52a2d8b2e7d79p-1"),
    ("lossless", 777, 37, "sigma_minus"): ("0x1.d7e5c8e4356efp-2", "0x1.fc5f19f817e81p-2"),
    ("lossless", 777, 37, "sigma_plus"): ("0x1.ad72b07a127b5p-1", "0x1.dc10da5f54df6p-1"),
    ("lossy", 2600, 1000, "conditioning_gain"): ("0x1.57ffb714f8038p-6", "0x1.fd4b2992f3194p-6"),
    ("lossy", 2600, 1000, "sigma1"): ("0x1.4334dfe7d74b7p-1", "0x1.56a4a3c83cc27p-1"),
    ("lossy", 2600, 1000, "sigma2"): ("0x1.3a37cababa2f9p-1", "0x1.4c601e3768d6cp-1"),
    ("lossy", 2600, 1000, "sigma_cond"): ("0x1.2cf1cac00fd89p-1", "0x1.3e2b24e8127a4p-1"),
    ("lossy", 2600, 1000, "sigma_minus"): ("0x1.fbd13c8c7ceccp-2", "0x1.0d516d563bdaep-1"),
    ("lossy", 2600, 1000, "sigma_plus"): ("0x1.7fa341c495709p-1", "0x1.95920f816ef63p-1"),
    ("lossy", 2600, 37, "conditioning_gain"): ("0x1.5b323b9a69991p-6", "0x1.f89db3b0d0428p-6"),
    ("lossy", 2600, 37, "sigma1"): ("0x1.4509da5abad9dp-1", "0x1.5775e13a4409dp-1"),
    ("lossy", 2600, 37, "sigma2"): ("0x1.3b4fd39ef0e45p-1", "0x1.4c84b08cefe55p-1"),
    ("lossy", 2600, 37, "sigma_cond"): ("0x1.2d2bfb5b280e0p-1", "0x1.4096c21ab6d05p-1"),
    ("lossy", 2600, 37, "sigma_minus"): ("0x1.003572a4df7c2p-1", "0x1.0ceaf105a2e30p-1"),
    ("lossy", 2600, 37, "sigma_plus"): ("0x1.8219d3d6f32b2p-1", "0x1.97ca9af8079f9p-1"),
    ("lossy", 777, 1000, "conditioning_gain"): ("0x1.27c2d27c12a93p-6", "0x1.2c9b47699d083p-5"),
    ("lossy", 777, 1000, "sigma1"): ("0x1.405da47b5536ap-1", "0x1.6058ac601b6a7p-1"),
    ("lossy", 777, 1000, "sigma2"): ("0x1.2f50b150b4fdap-1", "0x1.4f65cec923324p-1"),
    ("lossy", 777, 1000, "sigma_cond"): ("0x1.20fc84b11debbp-1", "0x1.3fe347240f1e4p-1"),
    ("lossy", 777, 1000, "sigma_minus"): ("0x1.edc270a23e8c7p-2", "0x1.10e96ef2040b4p-1"),
    ("lossy", 777, 1000, "sigma_plus"): ("0x1.755581440b8ddp-1", "0x1.a03289920d50bp-1"),
    ("lossy", 777, 37, "conditioning_gain"): ("0x1.1c9074fad7a05p-6", "0x1.fcb9dcbd8508cp-6"),
    ("lossy", 777, 37, "sigma1"): ("0x1.3d515a75fc7d3p-1", "0x1.5d35f49923568p-1"),
    ("lossy", 777, 37, "sigma2"): ("0x1.31d0b6e04b430p-1", "0x1.5054a5b281da1p-1"),
    ("lossy", 777, 37, "sigma_cond"): ("0x1.263c08851b753p-1", "0x1.437007fbf4a7dp-1"),
    ("lossy", 777, 37, "sigma_minus"): ("0x1.fa09cfc564d2ep-2", "0x1.14551d42b2f06p-1"),
    ("lossy", 777, 37, "sigma_plus"): ("0x1.70aa61e9fcf29p-1", "0x1.9c84dd7027727p-1"),
}


@functools.lru_cache(maxsize=None)
def bootstrap_run(variant, shots):
    return run_sequence(SequenceConfig(mode="qnd", kappa_nominal=0.62, shots=shots, seed=SEED,
                                       **BOOTSTRAP_VARIANTS[variant]))


def fresh_bootstrap_run(variant, shots):
    """A new RunResult of the cached columns: bootstrap_ci memoises its values per run."""
    run = bootstrap_run(variant, shots)
    return RunResult(run.config, run.s1, run.s2)


@pytest.mark.parametrize("variant, shots, resamples, estimator", list(BOOTSTRAP_INTERVALS))
def test_bootstrap_interval(variant, shots, resamples, estimator):
    lo, hi = bootstrap_ci(fresh_bootstrap_run(variant, shots), estimator, resamples=resamples,
                          seed=BOOTSTRAP_SEED)
    assert (lo.hex(), hi.hex()) == BOOTSTRAP_INTERVALS[variant, shots, resamples, estimator]


@pytest.mark.parametrize("variant, shots, resamples",
                         sorted({key[:3] for key in BOOTSTRAP_INTERVALS}))
def test_bootstrap_moment_pass_serves_the_variances(variant, shots, resamples, monkeypatch):
    # one moment pass serves all six estimators: in any request order one
    # generator is built, and each interval is the golden one
    built = []

    def counting_generator(bit_generator):
        built.append(bit_generator)
        return Generator(bit_generator)

    monkeypatch.setattr(stats, "Generator", counting_generator)
    estimators = sorted({key[3] for key in BOOTSTRAP_INTERVALS})
    for order in (estimators, estimators[::-1], estimators[3:] + estimators[:3]):
        built.clear()
        run = fresh_bootstrap_run(variant, shots)
        for estimator in order + order[::-1]:
            lo, hi = bootstrap_ci(run, estimator, resamples=resamples, seed=BOOTSTRAP_SEED)
            assert (lo.hex(), hi.hex()) == BOOTSTRAP_INTERVALS[variant, shots, resamples,
                                                               estimator]
        assert len(built) == 1
