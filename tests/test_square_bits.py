"""Bit pins for the square's operator values beyond the golden files' reach.

The golden files stop at n = 256: one grid tile and fewer than 160 rows
handed to the bilinear reduction.  These hex floats were captured from
the per-row Kahan loop with 2^14-element grid tiles, at degrees where the
reduction takes up to about 900 rows and the grid spans many tiles, so a
change to the reduction's order or to the tiling that moves a bit fails
here.
"""

from dataclasses import astuple, replace

import pytest

from akrvoro import apply, lookup
from akrvoro.asymptotics import decomposition

POINTS = ((0.7, 0.3), (0.5, 0.5))

# (function, n) -> hex of apply(f, n, j, p) for j = 1, 2, 3, each at POINTS
APPLY = {
    ("runge-2d", 512): (
        ("0x1.56189b46d0c6fp-2", "0x1.f411adfdfdc12p-1"),
        ("0x1.55a6897f7e4c5p-2", "0x1.f40a86d4d1276p-1"),
        ("0x1.553383e341943p-2", "0x1.f400783ab2e11p-1"),
    ),
    ("runge-2d", 1024): (
        ("0x1.55b7f071c4014p-2", "0x1.f9e5ae4235db4p-1"),
        ("0x1.557efa0db8759p-2", "0x1.f9e3d06fd63e2p-1"),
        ("0x1.5545c6f1e7cfcp-2", "0x1.f9e1320504c3ep-1"),
    ),
    ("runge-2d", 2048): (
        ("0x1.5586dffb3c544p-2", "0x1.fce996badc434p-1"),
        ("0x1.556a69793d2cap-2", "0x1.fce91c9352bb0p-1"),
        ("0x1.554de3d11ae0bp-2", "0x1.fce8715e8e9eep-1"),
    ),
    ("runge-2d", 4096): (
        ("0x1.556e29cffeff0p-2", "0x1.fe726b45c315cp-1"),
        ("0x1.555fefbd09c52p-2", "0x1.fe724c620c5b4p-1"),
        ("0x1.5551b1e1877c2p-2", "0x1.fe72211d0fc7dp-1"),
    ),
    ("runge-2d", 8192): (
        ("0x1.5561c358d0747p-2", "0x1.ff389b87986b1p-1"),
        ("0x1.555aa69b19c50p-2", "0x1.ff3893c335b53p-1"),
        ("0x1.555388eb5f683p-2", "0x1.ff3888e2b07ffp-1"),
    ),
    ("exp-sum", 512): (
        ("0x1.5c15333d39eb6p+1", "0x1.5c1c297de5e6ep+1"),
        ("0x1.5bbe0c2ad4044p+1", "0x1.5bc50c9576b0ep+1"),
        ("0x1.5b66b381d0062p+1", "0x1.5b6dc3dac794dp+1"),
    ),
    ("exp-sum", 1024): (
        ("0x1.5c02ed7c8b6b2p+1", "0x1.5c066869bdfeep+1"),
        ("0x1.5bd764b5e516cp+1", "0x1.5bdae22910eb4p+1"),
        ("0x1.5babcf9c17969p+1", "0x1.5baf50fe66351p+1"),
    ),
    ("exp-sum", 2048): (
        ("0x1.5bf9caf839cd4p+1", "0x1.5bfb886207b9fp+1"),
        ("0x1.5be4094257e99p+1", "0x1.5be5c74d15800p+1"),
        ("0x1.5bce4479f4424p+1", "0x1.5bd0037ef3b70p+1"),
    ),
    ("exp-sum", 4096): (
        ("0x1.5bf539cd13c6ep+1", "0x1.5bf6187ec7956p+1"),
        ("0x1.5bea599d1a084p+1", "0x1.5beb3876f80a5p+1"),
        ("0x1.5bdf78a8c85c5p+1", "0x1.5be057c106701p+1"),
    ),
    ("exp-sum", 8192): (
        ("0x1.5bf2f13d41a1ap+1", "0x1.5bf360954eb50p+1"),
        ("0x1.5bed814ff5fcep+1", "0x1.5bedf0b20b681p+1"),
        ("0x1.5be811319d659p+1", "0x1.5be880a344cfap+1"),
    ),
}

# n -> hex of decomposition(runge-2d, n, p) as (e_term, f_term, g_residual,
# total), one tuple at each of POINTS
DECOMPOSITION = {
    512: (
        (
            "0x1.56c1fbb50f0a0p-3",
            "-0x1.8f019c4f3ad2fp-2",
            "-0x1.05e06083e4200p-11",
            "-0x1.c8471d49ea800p-3",
        ),
        (
            "-0x1.6e06bfd536eeap-7",
            "-0x1.6e06bfd536eebp-7",
            "-0x1.6f0e2d44e4456p-8",
            "-0x1.c9ca4b2670000p-6",
        ),
    ),
    1024: (
        (
            "0x1.5611930534320p-3",
            "-0x1.8ea10422611acp-2",
            "-0x1.0556399ef9000p-12",
            "-0x1.c7b3205c5d800p-3",
        ),
        (
            "-0x1.7e239588e5c83p-8",
            "-0x1.7e239588e5c83p-8",
            "-0x1.7ebb2850e8df2p-9",
            "-0x1.ddd25f9d20000p-7",
        ),
    ),
    2048: (
        (
            "0x1.55b4e8d04c2eap-3",
            "-0x1.8e6de2ea5c302p-2",
            "-0x1.050bb83739800p-13",
            "-0x1.c7681ff27a000p-3",
        ),
        (
            "-0x1.86d4a40c2e0fcp-9",
            "-0x1.86d4a40c2e0fbp-9",
            "-0x1.8726085347c12p-10",
            "-0x1.e89e262100000p-8",
        ),
    ),
    4096: (
        (
            "0x1.55857b7954021p-3",
            "-0x1.8e539ebe57ebbp-2",
            "-0x1.04e51f0155000p-14",
            "-0x1.c7425ea73c000p-3",
        ),
        (
            "-0x1.8b5a4c6dd43cep-10",
            "-0x1.8b5a4c6dd43cdp-10",
            "-0x1.8b847ce8af0cap-11",
            "-0x1.ee3b6ba800000p-9",
        ),
    ),
}


def _function(name):
    """runge-2d, or exp-sum without its factors, so that both take the
    double sum."""
    f = lookup(name).function
    return f if name == "runge-2d" else replace(f, factors=None)


@pytest.mark.parametrize("name, n", sorted(APPLY))
def test_apply_on_the_square_keeps_its_bits(name, n):
    f = _function(name)
    got = tuple(
        tuple(apply(f, n, j, p).hex() for p in POINTS) for j in (1, 2, 3)
    )
    assert got == APPLY[name, n]


@pytest.mark.parametrize("n", sorted(DECOMPOSITION))
def test_runge_decomposition_keeps_its_bits(n):
    f = lookup("runge-2d").function
    got = tuple(
        tuple(v.hex() for v in astuple(decomposition(f, n, p))[:4]) for p in POINTS
    )
    assert got == DECOMPOSITION[n]
