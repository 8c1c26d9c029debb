module mpicomp/bench

go 1.22

require mpicomp v0.0.0

replace mpicomp => ../
