"""Only the CPU part of a wall time is rescaled to the reference speed."""

from perfbench.speed import REFERENCE_S, adjusted


def test_cpu_time_is_rescaled_and_waiting_is_not():
    # 2 s of waiting plus 1 s of CPU while the machine ran at half speed.
    assert adjusted(3.0, 1.0, 2 * REFERENCE_S) == 2.5
    assert adjusted(3.0, 1.0, REFERENCE_S) == 3.0
    assert adjusted(3.0, 0.0, 2 * REFERENCE_S) == 3.0
