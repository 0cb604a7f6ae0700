"""nektau: exact symbolic-series verification of instanton/tau identities."""
