package main

// Example runs the walkthrough, so go test checks its output: ubdm derived
// to Eq. 1's 27, the bound padded from tblook's isolation row, and every
// contended run within it.
func Example() {
	main()
	// Output:
	// derived ubdm = 27 cycles (confidence 1.00)
	//
	// == ETB = isolation + nr·ubdm (§4.3) of tblook on ngmp-ref, ubdm=27 (Eq. 1 ubd=27) ==
	// task            isolation      nr  ubdm        ETB   pad%
	// tblook              27780    1510    27      68550   59.5
	//
	// scenario  contenders               observed        ETB  verdict   headroom%
	// rsk       3×rsk:load                  55710      68550  HOLDS          23.0
	// set0      matrix+rspeed+tblook        46442      68550  HOLDS          47.6
	// set1      bitmnp+iirflt+tblook        38461      68550  HOLDS          78.2
	// set2      idctrn+matrix+ttsprk        43569      68550  HOLDS          57.3
	// set3      aifirf+cacheb+canrdr        42899      68550  HOLDS          59.8
	// set4      basefp+iirflt+ttsprk        32580      68550  HOLDS         110.4
	// set5      bitmnp+matrix+ttsprk        40881      68550  HOLDS          67.7
	//
	// worst observed 55710 ≤ ETB 68550: the bound holds in all 7 contended runs (23.0% headroom)
}
