"""Tsallis relative q-entropy of finite-dimensional quantum states for q > 1,
with evaluators and randomized verification for its continuity bounds."""
