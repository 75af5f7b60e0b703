"""Statistics and reporting helpers for the evaluation."""
