"""Offline benchmark for latexmt: seeded projects, a latency backend, tracing.

Run ``python3 perfbench/run.py --help`` from the root of a checkout.
"""
