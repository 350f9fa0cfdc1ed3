"""The exhaustive matmul tuner over hardware-centric schedule spaces
(``repro.core.tuning``)."""
