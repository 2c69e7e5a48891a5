module slicer/benchmark

go 1.22

require slicer v0.0.0

replace slicer => ../
