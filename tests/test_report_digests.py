"""``twistkit verify --json`` reports and ``twistkit action`` output pinned by
their SHA-256.

A speed-up may not change what a check measures, so its reports must stay
byte-identical: these digests turn that into a test.  The bits of a report
follow the floating-point kernels numpy runs, so the digests hold for the
numpy version and machine type that produced them; elsewhere the test skips
and says so.  A change that alters a report on purpose records the new
digests here, with the reason, in the same commit.
"""

import hashlib
import platform

import numpy as np
import pytest

#: The environment the digests below were produced in.
RECORDED_ON = {"numpy": "2.4.6", "machine": "x86_64"}

#: ``verify`` arguments -> (exit status, SHA-256 of the ``--json`` report).
DIGESTS = {
    ("--seed", "0"): (0, "de19c359ed925558e8f519aba1cf3f13a6713ed24cac578bd8cfd3b6df2dbd68"),
    ("--seed", "1"): (0, "3fe1a588acb5934a6f8e60816a4f531b2011f56407f4c193f3598b14bd03d357"),
    # manifold.integration_by_parts fails seed 2 by rounding (ROADMAP)
    ("--seed", "2"): (1, "b1d6b609085af3283cb2a4b4576268c19f8e84b1dea283f251c8b285ace456d6"),
    # boost gates are absolute, so rapidity 6 fails some of them (ROADMAP)
    ("--seed", "0", "--rapidity", "6"): (
        1,
        "77474819e20a5505b8c6bef1fd69e97dd25205188dbacb63f37090c4d24541bd",
    ),
    # a zero rapidity cap: skip records, the flat-only duality sweep and the
    # identity boost in the Euler-Lagrange check
    ("--seed", "3", "--rapidity", "0"): (
        0,
        "8af0059cbb54f31a0f78fa2ea969be942dc9821f0bc53d5b6a080456ab3a8ccc",
    ),
    # a generic draw of the weyl-right duality sweep fails its nonsingularity
    # test, so random_problem redraws that sample and a new batch resumes
    # (the smallest such seed: the sweep of seeds 0-39 redraws no weyl-right
    # sample, and seed 9 redraws a weyl-left one)
    ("--seed", "40"): (0, "6c90989d41d246192dc7909819464af1bc129dc2437971778f44c5918da3dcd2"),
    # larger operators: more terms through each per-operator reduction (the
    # smallest seed whose report passes at this cutoff)
    ("--seed", "0", "--mode-cutoff", "3"): (
        0,
        "bb739481813c9b7e01732308b48285091f020c2376c0e251220bb0425627d183",
    ),
}

#: ``action`` arguments -> (exit status, SHA-256 of its stdout).
ACTION_DIGESTS = {
    ("--geometry", "manifold", "--seed", "1"): (
        0,
        "84bd4c19757ddfd55a73bbbfcffe3fed956ad2fd2df7761348ce30024590c180",
    ),
    ("--geometry", "doubled", "--seed", "1"): (
        0,
        "111bdf7475969d0d71f7b027b2401627d434da1057b7ab9581f623c56cfe68bb",
    ),
    ("--geometry", "electro", "--seed", "1"): (
        0,
        "45248018f4087097b963590bcbd781631658eea19b08ebe96e1e8eb25b78c862",
    ),
}


def _skip_unless_recorded_here():
    here = {"numpy": np.__version__, "machine": platform.machine()}
    if here != RECORDED_ON:
        pytest.skip(f"digests were recorded on {RECORDED_ON}, this is {here}")


def _id(args):
    return "_".join(a.lstrip("-") for a in args)


@pytest.mark.parametrize("args", list(DIGESTS), ids=_id)
def test_report_digest(args, run_cli, tmp_path):
    _skip_unless_recorded_here()
    path = tmp_path / "report.json"
    proc = run_cli("verify", *args, "--json", str(path))
    status, digest = DIGESTS[args]
    assert proc.returncode == status, proc.stdout + proc.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args", list(ACTION_DIGESTS), ids=_id)
def test_action_digest(args, run_cli):
    _skip_unless_recorded_here()
    proc = run_cli("action", *args)
    status, digest = ACTION_DIGESTS[args]
    assert proc.returncode == status, proc.stdout + proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
