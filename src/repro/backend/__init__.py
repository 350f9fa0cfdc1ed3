"""Backends for IR modules: CUDA source generation and a functional
interpreter."""
