"""Benchmark of the duetdiff training step and guided sampler."""
