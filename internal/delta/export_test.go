package delta

// UpdateGolden lets the external test package share the -update flag.
var UpdateGolden = updateGolden
