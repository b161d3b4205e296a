module gompresso/benchmark

go 1.24

toolchain go1.24.0

require gompresso v0.0.0

replace gompresso => ../
