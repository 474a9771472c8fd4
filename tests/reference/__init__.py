"""Deliberately naive reference implementations the tests use as oracles."""
