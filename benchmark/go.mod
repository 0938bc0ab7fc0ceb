module encdns/benchmark

go 1.24

require encdns v0.0.0

replace encdns => ../
