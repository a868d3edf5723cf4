"""Two-point-measurement work statistics for a driven qubit.

The package binds no names; import each from its module.  ``qubit`` holds
the thermal state and the Rabi law; ``protocol`` the step tables, readout
error and ``sample_work``; ``analytics`` the closed forms and the incoherent
region sweep; ``stats`` the estimators, the bootstrap of Q and the sigma
distance; ``io`` the sample and table files; ``reference`` the bundled
points; and ``config`` and ``cli`` the run configuration and the commands.
"""

__version__ = "0.1.0"
