"""``python -m infospread``: the command-line front end."""
from .cli import app
app()
