module ogpa/bench

go 1.23

require ogpa v0.0.0

replace ogpa => ../
