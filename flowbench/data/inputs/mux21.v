module mux21(a, b, s, f);
  input a;
  input b;
  input s;
  output f;
  wire w0;
  wire w1;
  wire w2;
  wire w3;
  assign w0 = a ^ b;
  assign w1 = ~s;
  assign w2 = w0 & w1;
  assign w3 = b ^ w2;
  assign f = w3;
endmodule
