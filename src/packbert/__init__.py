"""packbert: desk-scale encoder LM pipeline with packed-sequence attention.

Subpackages cover configuration, tokenization, the packed/rotary attention
core (one blocked numpy kernel), the transformer model with
hand-written gradients, training objectives and optimizer, deterministic
training with provenance, context extension, decoder-to-encoder conversion
via low-rank adapters, the data pipeline, needle-in-a-haystack dataset
tooling, and the padded-vs-packed throughput benchmark.
"""

__version__ = "0.1.0"
