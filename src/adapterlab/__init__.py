"""Desk-scale lab for orthogonal language/task adapters and zero-shot transfer."""
