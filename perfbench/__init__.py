"""Seeded, closed-loop benchmark of the GreenGPU reproduction (see README.md)."""
