module prognosticator/bench

go 1.22

require prognosticator v0.0.0

replace prognosticator => ../
