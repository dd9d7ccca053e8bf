"""Throughput benchmark for the netmimo Monte Carlo sweeps (see README.md)."""
