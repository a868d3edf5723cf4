"""Two-point-measurement work statistics for a driven qubit.

The package binds no names; import each from its module.  ``qubit`` holds
the thermal state and the Rabi law; ``protocol`` the step tables, readout
error and ``sample_work``; ``analytics`` the closed forms, the region sweep
and the certificate; ``stats`` the estimators and the bootstrap of Q; ``io``
the sample and table files; ``reference`` the bundled points; and ``config``
and ``cli`` the run configuration and the commands.
"""

__version__ = "0.1.0"
