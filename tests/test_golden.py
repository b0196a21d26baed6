"""Golden sha256 digests: the reproducibility contract pinned across library versions.

The rerun and worker-count tests only compare a build with itself.  These
digests were recorded once and must hold on every machine and every NumPy
release: a mismatch means the bits of a run changed there, which breaks the
"byte-identical" promise and must be reported, not re-recorded.  The column
digests pin the raw float64 output of the sampler (Philox words, AS241 and
the column algebra); the figure digests pin the CLI's data files for the
README's fig3 spec, and were recorded before the sampler moved from
``scipy.special.ndtri`` to the in-package AS241.
"""

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from qndsim.harness import (
    cmd_conditional_sweep,
    cmd_joint,
    cmd_variance_sweep,
    spec_from_mapping,
)
from qndsim.montecarlo import SequenceConfig, run_sequence

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
    "fig3_conditional.csv": "8257065fe5645f3dc5c2ee7b65c5f31f2eca61feea7889940025f53dce4c651d",
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
