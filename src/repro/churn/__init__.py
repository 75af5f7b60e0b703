"""Environment models: bootstrap, churn, traffic and message loss.

These correspond to the "dimensions" of the paper's evaluation
(Section 5.3): network churn, network traffic and message loss, plus the
random bootstrap procedure used during the setup phase.
"""
