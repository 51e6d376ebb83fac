"""Exact characteristic-class arithmetic and certificates for spin^k structures."""

__version__ = "0.1.0"
