package gompresso

// BytesPerRun exposes bytesPerRun to the external test package.
var BytesPerRun = bytesPerRun
