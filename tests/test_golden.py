"""Golden fingerprints of small fixed runs.

Rerun tests only show that the engine agrees with itself. These values were
recorded from the engine before the row-wise geometry refactor, so a faster
engine that computes something slightly different fails here. A change that
moves one of them is a deliberate numerical change and must say so in
CHANGES.md.

The net runs go through ``fwsd train`` and pin the iterates digest and the
SHA-256 of the trace CSV, the checkpoint and the report (less the lines
that echo output paths). The quadratic run calls
``fwsd.run`` with away steps on blocks of mixed width and radius, so
that grouping blocks by ball and putting results back in block order are
both exercised; its trace records are hashed with every float in hex, and
its output and final iterates byte for byte. ``fwsd synth`` pins the bytes
of the binary dataset splits and of the teacher checkpoint it writes.
"""

import hashlib

import numpy as np
import pytest

from fwsd import BatchSchedule, L1Ball, OptimizerConfig, make_quadratic, run
from fwsd.cli import main


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fingerprint(prefix):
    # the report echoes the output paths; every other line is pinned
    report = prefix.with_suffix(".report.txt").read_text().splitlines()
    kept = [line for line in report if str(prefix.parent) not in line]
    digest = next(line.partition(" = ")[2] for line in report
                  if line.startswith("iterates_digest = "))
    return (
        digest,
        _sha256(prefix.with_suffix(".trace.csv")),
        _sha256(prefix.with_suffix(".ckpt")),
        hashlib.sha256("\n".join(kept).encode()).hexdigest(),
    )


NET_GOLDEN = {
    "sfw": (
        "528e97f2e3ac6f58e55fe45b51156a050b66e7df179b005c812a31c8fb34d2c7",
        "d8ce640dd8505175613ec25cf4dafa3cb589bab118caf19f5918421881f9cdda",
        "af5c6d49aa50a263baab940c2ec1f2fa04b555dd118b67145448bc5d6277f0dd",
        "a5959b6a00ff04da428ed7ae700645352f76dda68e435e2e7e9ccd26708c6cda",
    ),
    "sfw-if": (
        "35ad1d517d0642deeaab187719e09d4c7be77d68d93dab95e36bfb10dd3f0a69",
        "1ef97d8012a637d4166e8be8cb00b89f52a8b82e6114e70dac8b0ea256fa3275",
        "9889e33ed550dd730a7734910459752aebc8839e950a41b4bae9fc81a8db2ae3",
        "c50eefbfa3e0afa629f4842a485e216d4d2ea9cb07971c6119e74a3dd1b37358",
    ),
    "sgd": (
        "de0de9c3e35caa03cea473bd2809047ff4cfa6a698f89a8893e99b4502a4c4d6",
        "6c45ac825e443a1237887b665825bc73404ea583b33d8f66ab5c57424284757f",
        "84a8df0fe343aba7d49d0fb6f4056f69418ea0d9aba802002aacb1efaa1ed19f",
        "1f4a922d65009b8c80d0c574574cc9c07df3e8e33d137840fe41ce7d4b09b300",
    ),
}


@pytest.mark.parametrize("method", sorted(NET_GOLDEN))
def test_net_run_matches_golden(tmp_path, capsys, method):
    # 8 rows of width 6 at radius 1 and 6 rows of width 8 at radius 1.5:
    # two groups of blocks that share a ball
    argv = [
        "train", "--problem", "synthetic-net", "--layer-sizes", "6,8,6,1",
        "--fw-layers", "0,1", "--deltas", "1,1.5", "--train-size", "200",
        "--val-size", "20", "--test-size", "50", "--synth-m", "3",
        "--method", method, "--iterations", "120", "--batch-size", "8",
        "--l-nabla", "0.7", "--seed", "3", "--out-prefix", str(tmp_path / "n"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert _fingerprint(tmp_path / "n") == NET_GOLDEN[method]


def test_cli_quadratic_run_matches_golden(tmp_path, capsys):
    argv = [
        "train", "--problem", "quadratic", "--quad-blocks", "9,4,9", "--quad-y", "3",
        "--deltas", "1,0.5,1", "--quad-sigma", "0.5", "--method", "sfw-if",
        "--iterations", "200", "--batch-size", "2", "--seed", "9",
        "--out-prefix", str(tmp_path / "q"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert _fingerprint(tmp_path / "q") == (
        "4cc3c94f95f62076f020f9c37e3a726b694fa7b88471e367e7f3a5afca5d7bea",
        "3f5dbeeb4debf66a25fcf8ba18b19aa3b98e9a5c59ea4ff83ef480f42319957d",
        "ca0a0905b16b06561c0efc3a1beaf59aedaaee7bfc738817904a68886746665e",
        "130018b896aed220aaa5771588855fdd1aef5f01257df6667888f8f6c5b54508",
    )


def test_synth_files_match_golden(tmp_path, capsys):
    argv = [
        "synth", "--layer-sizes", "6,8,6,1", "--synth-m", "3", "--snr", "10",
        "--train-size", "40", "--val-size", "10", "--test-size", "20", "--seed", "3",
        "--out-prefix", str(tmp_path / "s"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    names = ("train.bin", "val.bin", "test.bin", "teacher.ckpt")
    assert [_sha256(tmp_path / f"s.{name}") for name in names] == [
        "fcb1e39689b4172e4ed494ee00f6b3ad9aeca00aaeb73da53e4e06c4b086cc90",
        "0d4718193be3aa39fdb75c8cebf9415c18fe4fd5139aeb5cb32341ad93b851e0",
        "ee2c7938534914d5d43f78c86028c26315a728ae4e5cfbc00490225a5d0719e6",
        "4f7404c677d860aa930d1cda32045c27b1107eacdcee69fef8875e81c37de489",
    ]


def _hex(value):
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, float):
        return value.hex()
    return [_hex(v) for v in value]


def _iterate_sha(iterate):
    h = hashlib.sha256()
    for block in (*iterate.x_blocks, iterate.y):
        assert block.dtype == np.float64 and block.ndim == 1
        h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
    return h.hexdigest()


def test_mixed_block_quadratic_run_matches_golden():
    # blocks 0, 1 and 3 share a ball; block 2 differs in its width, block 4
    # only in its radius
    balls = [L1Ball(20, 1.0), L1Ball(20, 1.0), L1Ball(7, 1.0),
             L1Ball(20, 1.0), L1Ball(20, 2.0)]
    inst = make_quadratic(seed=4, p=tuple(b.dim for b in balls), q=5,
                          l_nabla=1.0, noise_sigma=1.0)
    config = OptimizerConfig(
        l_nabla=1.0,
        c_bar_per_block=tuple(2.0 * b.diameter() ** 2 for b in balls),
        iterations=300,
        seed=12,
        batch_schedule=BatchSchedule.constant(2),
        alternative_directions=True,
    )
    result = run(inst, balls, np.zeros(5), [np.zeros(b.dim) for b in balls], config)
    records = [[r.k, r.objective_estimate, r.gap_hat, r.alpha_bar_blocks, r.alpha_sd,
                r.beta_bar_blocks, r.alt_taken_blocks, r.nnz_blocks] for r in result.trace]
    trace_sha = hashlib.sha256(repr(_hex(records)).encode()).hexdigest()
    assert (result.iterates_digest, trace_sha) == (
        "18191cf490d97a9ce7f7b426b4817f0bbb1b3675eabafe26868584d2f0d6a736",
        "8ac296b1cfd2c5080f5de0714bc6ad99dab878ca8ba9abe04a8e9a26511d8d9d",
    )
    # the digest hashes the iterates as the engine holds them; the output
    # and final iterates are reassembled in block order on a separate path
    assert (result.output_index, _iterate_sha(result.output_iterate),
            _iterate_sha(result.final_iterate)) == (
        60,
        "e8bb7541d5be804f2542b4aa79fade7d9842be477964bcaadacd1e56550aa3df",
        "72f8cf883ff20eef9f427ccfd0b958679b49253cdbe27f69c4a792bd009f6667",
    )
