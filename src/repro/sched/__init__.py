"""Schedules, their hardware-centric spaces, and the templates and rules that
turn a task into IR kernels."""
