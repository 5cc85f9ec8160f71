"""Host-time benchmark of the DARPA fleet path; see ``run.py``."""
