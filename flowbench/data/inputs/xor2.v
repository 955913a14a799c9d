module xor2(a, b, f);
  input a;
  input b;
  output f;
  wire w0;
  assign w0 = a ^ b;
  assign f = w0;
endmodule
