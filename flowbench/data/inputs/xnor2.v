module xnor2(a, b, f);
  input a;
  input b;
  output f;
  wire w0;
  wire w1;
  assign w0 = a ^ b;
  assign w1 = ~w0;
  assign f = w1;
endmodule
