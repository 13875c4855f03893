"""Tests that harness overrides flow through to the stack (the mechanism
the PML-buffer ablation benchmark relies on)."""

from repro.experiments.harness import run_microbench


def test_pml_buffer_entries_override_changes_full_events():
    small = run_microbench("epml", mem_mb=10, pml_buffer_entries=64)
    large = run_microbench("epml", mem_mb=10, pml_buffer_entries=4096)
    assert small.events.get("self_ipi", 0) > large.events.get("self_ipi", 0)
    assert small.n_dirty == large.n_dirty  # no loss either way
